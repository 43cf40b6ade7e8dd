// Quickstart: build a small emulated platform, ping across it, and run a
// toy client/server on two virtual nodes.
//
//   $ ./examples/quickstart
//
// Walks through the three layers a P2PLab user touches:
//   1. topology::Topology — what the emulated Internet looks like;
//   2. core::Platform    — folding virtual nodes onto physical ones and
//                          compiling the Dummynet/IPFW rules;
//   3. sockets::SocketApi — the BSD-style sockets the studied application
//                          uses, bound to each virtual node via $BINDIP.
#include <cstdio>

#include "core/platform.hpp"
#include "topology/topology.hpp"

using namespace p2plab;

int main() {
  // Eight DSL nodes (2 Mb/s down, 128 kb/s up, 30 ms) folded onto two
  // physical machines — four virtual nodes each.
  core::PlatformConfig config;
  config.physical_nodes = 2;
  core::Platform platform(topology::homogeneous_dsl(8), config);

  std::printf("platform: %zu virtual nodes on %zu physical nodes "
              "(%zu per machine), %zu firewall rules\n",
              platform.vnode_count(), platform.physical_node_count(),
              platform.folding_ratio(), platform.total_rules());
  for (std::size_t i = 0; i < platform.vnode_count(); ++i) {
    std::printf("  vnode %zu: %s on %s (BINDIP=%s)\n", i,
                platform.vnode(i).ip().to_string().c_str(),
                platform.host_of_vnode(i).name().c_str(),
                platform.process(i).getenv("BINDIP")->c_str());
  }

  // Ping between two co-located vnodes and two remote ones: both pay the
  // emulated access-link latency; only the remote pair crosses the switch.
  std::printf("ping vnode0 -> vnode1 (same machine): %s\n",
              platform.ping(0, 1)->to_string().c_str());
  std::printf("ping vnode0 -> vnode7 (across switch): %s\n",
              platform.ping(0, 7)->to_string().c_str());

  // A toy request/response application across the emulated network.
  auto listener = platform.api(7).listen(
      9000, [&](sockets::StreamSocketPtr sock) {
        sock->on_message([&, sock](sockets::Message&& msg) {
          std::printf("server: got %s request at t=%s, replying\n",
                      DataSize::bytes(msg.size.count_bytes())
                          .to_string()
                          .c_str(),
                      platform.sim_of_vnode(7).now().to_string().c_str());
          sockets::Message reply;
          reply.type = 2;
          reply.size = DataSize::kib(64);
          sock->send(reply);
        });
      });

  platform.api(0).connect(
      platform.vnode(7).ip(), 9000, [&](sockets::StreamSocketPtr sock) {
        sock->on_message([&](sockets::Message&&) {
          std::printf("client: reply received at t=%s "
                      "(64 KiB through the server's 128 kb/s uplink "
                      "~ 4.1 s + latency)\n",
                      platform.sim_of_vnode(0).now().to_string().c_str());
        });
        sockets::Message request;
        request.type = 1;
        request.size = DataSize::bytes(200);
        sock->send(request);
      });

  platform.run(SimTime::max());
  std::printf("done at simulated t=%s after %llu events\n",
              platform.now().to_string().c_str(),
              static_cast<unsigned long long>(platform.dispatched_events()));
  return 0;
}
