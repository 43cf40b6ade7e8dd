#include "ipfw/firewall.hpp"

#include "common/assert.hpp"

namespace p2plab::ipfw {

Firewall::Firewall(sim::Simulation& sim, FirewallConfig config, Rng rng)
    : sim_(sim), config_(config), rng_(rng) {}

PipeId Firewall::create_pipe(const PipeConfig& config) {
  pipes_.push_back(std::make_unique<Pipe>(
      sim_, config, rng_.fork(pipes_.size() + 1)));
  pipes_.back()->bind_metrics(pipe_metrics_);
  return static_cast<PipeId>(pipes_.size());  // ids start at 1
}

Pipe& Firewall::pipe(PipeId id) {
  P2PLAB_ASSERT(id != kNoPipe && id <= pipes_.size());
  return *pipes_[id - 1];
}

const Pipe& Firewall::pipe(PipeId id) const {
  P2PLAB_ASSERT(id != kNoPipe && id <= pipes_.size());
  return *pipes_[id - 1];
}

void Firewall::add_rule(Rule rule) {
  if (rule.action == RuleAction::kPipe) {
    P2PLAB_ASSERT_MSG(rule.pipe != kNoPipe && rule.pipe <= pipes_.size(),
                      "pipe rule references unknown pipe");
  }
  rules_.add(rule);
}

void Firewall::add_filler_rules(std::uint32_t first_number,
                                std::uint32_t count) {
  // Never-matching src: 255.255.255.255/32 is not used as a node address.
  const CidrBlock nomatch{Ipv4Addr::from_octets(255, 255, 255, 255), 32};
  rules_.reserve(rules_.size() + count);
  for (std::uint32_t i = 0; i < count; ++i) {
    rules_.add({.number = first_number + i,
                .src = nomatch,
                .action = RuleAction::kDeny});
  }
}

MatchResult Firewall::classify(Ipv4Addr src, Ipv4Addr dst, RuleDir pass) {
  MatchResult result = rules_.classify(src, dst, pass);
  const std::uint32_t charged = charged_rules(result);
  metrics_.packets_classified.inc();
  metrics_.rules_scanned.inc(charged);
  metrics_.scan_len.record(static_cast<double>(charged));
  metrics_.scan_cpu_ns.inc(
      static_cast<std::uint64_t>(scan_cost(result).count_ns()));
  if (result.denied) metrics_.denied.inc();
  return result;
}

void Firewall::bind_metrics(metrics::Registry& reg) {
  metrics_.packets_classified = reg.counter("ipfw.packets_classified");
  metrics_.rules_scanned = reg.counter("ipfw.rules_scanned");
  metrics_.denied = reg.counter("ipfw.denied");
  metrics_.scan_cpu_ns = reg.counter("ipfw.scan_cpu_ns");
  metrics_.scan_len = reg.histogram(
      "ipfw.scan_len", {1, 4, 16, 64, 256, 1024, 4096});
  pipe_metrics_ = PipeMetrics::resolve(reg);
  for (auto& pipe : pipes_) pipe->bind_metrics(pipe_metrics_);
}

}  // namespace p2plab::ipfw
