// Ablation: linear vs hash-based rule evaluation cost.
//
// The paper laments that IPFW cannot "evaluate the rules in a hierarchical
// way, or with a hash table" — the linear scan is P2PLab's main
// scalability limit (Figure 6). This ablation re-runs the Figure 6 sweep
// charging the probes of the rule table's host-address index instead of
// ipfw's linear walk: the RTT curve flattens, quantifying what a better
// firewall would buy the platform.
#include "bench_env.hpp"
#include "core/platform.hpp"
#include "metrics/stats.hpp"
#include "metrics/trace.hpp"

using namespace p2plab;

namespace {

double rtt_with(bool indexed_scan_cost, std::uint32_t rules) {
  core::PlatformConfig config;
  config.physical_nodes = 2;
  config.host.firewall.indexed_scan_cost = indexed_scan_cost;
  // Figure 6's delay-free LAN link: the RTT is the rule scan plus the NIC,
  // switch and socket path.
  const topology::LinkClass lan{.down = Bandwidth::unlimited(),
                                .up = Bandwidth::unlimited(),
                                .latency = Duration::zero()};
  core::Platform platform(topology::homogeneous_dsl(2, lan), config);
  if (rules > 0) platform.host(0).firewall().add_filler_rules(1000, rules);
  metrics::Summary rtt;
  for (int probe = 0; probe < 5; ++probe) {
    if (const auto d = platform.ping(0, 1)) rtt.add(d->to_millis());
  }
  return rtt.mean();
}

}  // namespace

int main() {
  bench::banner("Ablation", "linear vs hash rule classifier (Figure 6 sweep)");
  metrics::CsvWriter csv("abl_classifier",
                         {"rules", "rtt_linear_ms", "rtt_hash_ms"});
  csv.comment("seed=" + std::to_string(core::PlatformConfig{}.seed));
  for (std::uint32_t rules = 0; rules <= 50000; rules += 10000) {
    csv.row({std::to_string(rules), std::to_string(rtt_with(false, rules)),
             std::to_string(rtt_with(true, rules))});
  }
  csv.comment("linear grows ~0.1 ms per 1000 rules; hash stays flat — the "
              "classifier, not Dummynet, limits P2PLab's rule budget");
  return 0;
}
