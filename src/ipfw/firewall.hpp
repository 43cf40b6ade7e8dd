// The per-physical-node firewall: rule table + pipe table.
//
// Each physical node runs its own firewall (P2PLab's decentralized network
// emulation): it shapes the traffic of the virtual nodes it hosts and adds
// inter-group latency, and charges CPU time proportional to the rule count
// its RuleTable reports for each packet: ipfw's linear walk (the cost behind
// Figure 6), or the first-match index's probes under the ablation.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "common/ipv4.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "ipfw/pipe.hpp"
#include "ipfw/rule.hpp"
#include "sim/simulation.hpp"

namespace p2plab::ipfw {

/// CPU cost of examining one rule; the Figure 6 calibration constant.
inline constexpr Duration kPerRuleCost = Duration::ns(50);

struct FirewallConfig {
  /// Ablation: charge the index's probes (MatchResult::rules_probed)
  /// instead of ipfw's linear walk. Verdicts and pipes are the same.
  bool indexed_scan_cost = false;
};

/// Shared "ipfw.*" registry handles; one set aggregates every per-host
/// firewall (same names resolve to the same cells).
struct FirewallMetrics {
  metrics::Counter packets_classified;
  metrics::Counter rules_scanned;  // charged rules, summed; Fig 6's x-axis
  metrics::Counter denied;
  metrics::Counter scan_cpu_ns;  // CPU charged for rule scans, in sim ns
  metrics::Histogram scan_len;   // charged rules per packet
};

class Firewall {
 public:
  Firewall(sim::Simulation& sim, FirewallConfig config, Rng rng);

  /// Create a pipe and return its id (ipfw pipe N config ...).
  PipeId create_pipe(const PipeConfig& config);
  Pipe& pipe(PipeId id);
  const Pipe& pipe(PipeId id) const;
  size_t pipe_count() const { return pipes_.size(); }

  /// Append a rule (kept sorted by rule number; equal numbers keep
  /// insertion order, matching ipfw add semantics).
  void add_rule(Rule rule);
  /// Append `count` never-matching filler rules (used by the Figure 6
  /// sweep, where the rule list is padded to measure scan cost).
  void add_filler_rules(std::uint32_t first_number, std::uint32_t count);
  size_t rule_count() const { return rules_.size(); }

  /// Classify a packet. The scan costs charged_rules(result) *
  /// kPerRuleCost of CPU latency; scan_cost() turns a MatchResult into
  /// that Duration.
  MatchResult classify(Ipv4Addr src, Ipv4Addr dst,
                       RuleDir pass = RuleDir::kAny);
  /// The rules this firewall charges for `result`: ipfw's linear walk, or
  /// the index's probes under indexed_scan_cost.
  std::uint32_t charged_rules(const MatchResult& result) const {
    return config_.indexed_scan_cost ? result.rules_probed
                                     : result.rules_scanned;
  }
  Duration scan_cost(const MatchResult& result) const {
    return kPerRuleCost * static_cast<std::int64_t>(charged_rules(result));
  }

  const FirewallConfig& config() const { return config_; }

  /// Resolve "ipfw.*" handles from `reg` for this firewall and all of its
  /// pipes (present and future).
  void bind_metrics(metrics::Registry& reg);

 private:
  sim::Simulation& sim_;
  FirewallConfig config_;
  Rng rng_;
  RuleTable rules_;
  std::vector<std::unique_ptr<Pipe>> pipes_;  // index = PipeId - 1
  FirewallMetrics metrics_;
  PipeMetrics pipe_metrics_;  // copied into each pipe
};

}  // namespace p2plab::ipfw
