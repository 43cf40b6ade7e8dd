// Locality study on the Figure 7 topology.
//
//   $ ./examples/locality_study
//
// The paper adds *groups* of nodes to the emulation model precisely so
// that locality questions can be studied ("in a real system, those groups
// would match nodes from the same ISP, from the same country, or from the
// same continent"). This example builds the exact emulated topology of
// Figure 7 and measures what an application would see: intra-subnet,
// inter-subnet and inter-continent round-trip times, including the 853 ms
// worked example, then demonstrates the effect on a small file transfer.
#include <cstdio>

#include "core/platform.hpp"
#include "topology/topology.hpp"

using namespace p2plab;

namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

void measure(core::Platform& platform, const char* label, const char* from,
             const char* to) {
  const topology::Topology& topo = platform.topology();
  const auto rtt =
      platform.ping(*topo.node_index(ip(from)), *topo.node_index(ip(to)));
  std::printf("  %-34s %15s -> %-15s rtt %8.1f ms\n", label, from, to,
              rtt ? rtt->to_millis() : -1.0);
}

}  // namespace

int main() {
  core::PlatformConfig config;
  config.physical_nodes = 11;  // 250 vnodes per machine
  core::Platform platform(topology::figure7(), config);

  std::printf("Figure 7 topology: %zu virtual nodes in %zu zones on %zu "
              "physical machines, %zu rules total\n\n",
              platform.vnode_count(), platform.topology().zones().size(),
              platform.physical_node_count(), platform.total_rules());

  std::printf("round-trip times (compare the paper's 853 ms example):\n");
  measure(platform, "same subnet (8M DSL, 20ms)", "10.1.3.207", "10.1.3.5");
  measure(platform, "ISP subnets, 100ms apart", "10.1.3.207", "10.1.1.5");
  measure(platform, "modem subnet internally", "10.1.1.10", "10.1.1.20");
  measure(platform, "paper's example (853 ms)", "10.1.3.207", "10.2.2.117");
  measure(platform, "to the far group (600ms)", "10.1.3.207", "10.3.0.7");
  measure(platform, "between remote groups (1s)", "10.2.2.117", "10.3.0.7");

  // The application-level consequence: fetch 512 KiB from a local peer vs
  // from another continent over the same 10 Mb/s class links.
  auto fetch = [&](const char* label, std::size_t server_idx,
                   std::size_t client_idx) {
    auto listener = platform.api(server_idx)
                        .listen(9000, [&](sockets::StreamSocketPtr sock) {
                          sock->on_message([sock](sockets::Message&&) {
                            sockets::Message file;
                            file.type = 2;
                            file.size = DataSize::kib(512);
                            sock->send(file);
                          });
                        });
    const SimTime start = platform.now();
    platform.api(client_idx)
        .connect(platform.vnode(server_idx).ip(), 9000,
                 [&](sockets::StreamSocketPtr sock) {
                   sock->on_message([&, start, label](sockets::Message&&) {
                     std::printf("  %-34s %8.2f s\n", label,
                                 (platform.sim_of_vnode(client_idx).now() -
                                  start)
                                     .to_seconds());
                   });
                   sockets::Message req;
                   req.type = 1;
                   req.size = DataSize::bytes(100);
                   sock->send(req);
                 });
    platform.run(SimTime::max());
  };

  // Node indices: 10.2.0.0/16 zone spans indices 750..1749.
  std::printf("\n512 KiB fetch over 10 Mb/s links:\n");
  fetch("within 10.2.0.0/16", 750, 751);
  // 10.3.0.0/16 zone spans 1750..2749; crossing 10.2 <-> 10.3 adds 1 s
  // of one-way latency but bandwidth is the same.
  fetch("from 10.3 to 10.2 (1 s away)", 750, 1750);

  std::printf("\nconclusion: group latencies dominate short transfers; the "
              "access link dominates long ones.\n");
  return 0;
}
