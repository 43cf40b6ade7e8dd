// Describing an experiment in P2PLab's text topology format.
//
//   $ ./examples/custom_topology                 # built-in description
//   $ ./examples/custom_topology my-topology.txt # or your own file
//
// Shows the full workflow a platform user follows: write a topology file,
// parse it, fold it onto a cluster, inspect the compiled rule set, and
// probe the emulated latencies.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/platform.hpp"
#include "topology/parser.hpp"

using namespace p2plab;

namespace {

constexpr const char* kDefaultDescription = R"(# Two ISPs and a campus LAN.
container ispA 10.10.0.0/16
zone adsl   10.10.1.0/24 nodes=40 down=2M   up=128k latency=30ms
zone fiber  10.10.2.0/24 nodes=20 down=100M up=50M  latency=5ms
zone campus 10.20.0.0/24 nodes=40 down=10M  up=10M  latency=2ms loss=0.001
latency adsl fiber 20ms
latency ispA campus 250ms
)";

}  // namespace

int main(int argc, char** argv) {
  std::string text = kDefaultDescription;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << file.rdbuf();
    text = buffer.str();
  }

  const auto parsed = topology::parse_topology(text);
  if (!parsed.topology) {
    std::fprintf(stderr, "topology error: %s\n", parsed.error.c_str());
    return 1;
  }
  const topology::Topology& topo = *parsed.topology;

  std::printf("parsed %zu zones, %zu latency pairs, %zu nodes total\n",
              topo.zones().size(), topo.latencies().size(),
              topo.total_nodes());
  for (const auto& zone : topo.zones()) {
    std::printf("  %-8s %-15s nodes=%-4zu down=%s up=%s latency=%s\n",
                zone.name.c_str(), zone.subnet.to_string().c_str(),
                zone.node_count, zone.link.down.to_string().c_str(),
                zone.link.up.to_string().c_str(),
                zone.link.latency.to_string().c_str());
  }

  core::Platform platform(topo, core::PlatformConfig{.physical_nodes = 4});
  std::printf("\nfolded onto %zu machines (%zu vnodes each), %zu rules\n",
              platform.physical_node_count(), platform.folding_ratio(),
              platform.total_rules());

  // First node of each zone (global vnode indices).
  const std::size_t adsl = 0;
  const std::size_t fiber = 40;
  const std::size_t campus = 60;
  auto probe = [&](const char* label, std::size_t a, std::size_t b) {
    const auto rtt = platform.ping(a, b);
    std::printf("  %-22s %-12s -> %-12s  %8.1f ms\n", label,
                topo.node_address(a).to_string().c_str(),
                topo.node_address(b).to_string().c_str(),
                rtt ? rtt->to_millis() : -1.0);
  };
  std::printf("\nprobes:\n");
  probe("adsl -> fiber", adsl, fiber);
  probe("adsl -> campus", adsl, campus);
  probe("fiber -> campus", fiber, campus);
  probe("within campus", campus, campus + 1);
  return 0;
}
