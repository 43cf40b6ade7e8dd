// Figure 7: the worked example on the emulated topology.
//
// The paper measures 853 ms between 10.1.3.207 and 10.2.2.117 and
// decomposes it: 20 ms out + 400 ms inter-group + 5 ms in, 425 ms for the
// return, ~3 ms of firewall evaluation and underlying network. This bench
// reproduces the measurement and several other pair latencies implied by
// the topology, plus the per-node rule budget of the worked example.
#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "bench_env.hpp"
#include "core/bench_report.hpp"
#include "core/platform.hpp"
#include "metrics/trace.hpp"

using namespace p2plab;

namespace {
Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }
}  // namespace

int main(int argc, char** argv) {
  bench::banner("Figure 7", "emulated topology latency decomposition");
  const bool profile = bench::profile_enabled(argc, argv);
  bench::WallTimer timer;
  metrics::CsvWriter csv("fig7_topology_latency",
                         {"src", "dst", "rtt_ms", "paper_expected_ms"});
  core::PlatformConfig pconfig{.physical_nodes = 11};
  csv.comment("seed=" + std::to_string(pconfig.seed));

  core::Platform platform(topology::figure7(), pconfig);
  if (profile) platform.enable_profiling();

  const struct {
    const char* src;
    const char* dst;
    double expected_ms;  // 2*(src_lat + group_lat + dst_lat) + overhead
  } probes[] = {
      {"10.1.3.207", "10.2.2.117", 853.0},  // the paper's measurement
      {"10.1.3.207", "10.1.1.5", 2 * (20.0 + 100 + 100)},
      {"10.1.3.207", "10.1.2.5", 2 * (20.0 + 100 + 40)},
      {"10.1.3.207", "10.1.3.5", 2 * (20.0 + 0 + 20)},
      {"10.1.3.207", "10.3.0.7", 2 * (20.0 + 600 + 10)},
      {"10.2.2.117", "10.3.0.7", 2 * (5.0 + 1000 + 10)},
      {"10.1.1.9", "10.2.0.50", 2 * (100.0 + 400 + 5)},
  };
  const topology::Topology& topo = platform.topology();
  for (const auto& probe : probes) {
    const auto rtt = platform.ping(*topo.node_index(ip(probe.src)),
                                   *topo.node_index(ip(probe.dst)));
    csv.row({probe.src, probe.dst,
             rtt ? std::to_string(rtt->to_millis()) : "lost",
             std::to_string(probe.expected_ms)});
  }

  // The rule budget of the paper's example: the node hosting 10.1.3.207.
  const auto& fw = platform.host_of_vnode(250 + 250 + 206).firewall();
  std::printf("# host of 10.1.3.207: %zu rules (paper: 2 per hosted vnode "
              "+ 4 inter-group rules)\n",
              fw.rule_count());
  csv.comment("paper decomposition of 853 ms: 20+400+5 out, 425 return, "
              "~3 firewall/underlay overhead");
  core::write_bench_json(
      "fig7", "BENCH_fig7",
      core::bench_fields(platform, "probes",
                         static_cast<double>(std::size(probes)),
                         pconfig.seed, timer.elapsed_seconds()));
  return 0;
}
