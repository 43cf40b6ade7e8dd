// RST semantics and crash teardown: connection-refused, reset of
// established connections after a vnode crash, silent local teardown, and
// retransmit-timer hygiene (the event queue drains after a crash).
#include "sockets/socket.hpp"

#include <gtest/gtest.h>

#include <string>

#include "metrics/registry.hpp"

namespace p2plab::sockets {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

class ResetTest : public ::testing::Test {
 protected:
  ResetTest() {
    hostA = &network.add_host("node1", ip("192.168.38.1"));
    hostB = &network.add_host("node2", ip("192.168.38.2"));
    vnA = std::make_unique<vnode::VirtualNode>(*hostA, 1, ip("10.0.0.1"));
    vnB = std::make_unique<vnode::VirtualNode>(*hostB, 2, ip("10.0.0.51"));
    procA = std::make_unique<vnode::Process>(*vnA);
    procB = std::make_unique<vnode::Process>(*vnB);
    apiA = std::make_unique<SocketApi>(mgr, *procA);
    apiB = std::make_unique<SocketApi>(mgr, *procB);
    mgr.bind_metrics(registry);
  }

  Message text_message(const std::string& text) {
    return Message{.type = 1,
                   .size = DataSize::bytes(text.size()),
                   .body = std::make_shared<const std::string>(text)};
  }

  /// Establish a connection A -> B:6881 and return both ends.
  void establish(StreamSocketPtr& client, StreamSocketPtr& server) {
    listener =
        apiB->listen(6881, [&](StreamSocketPtr s) { server = s; });
    apiA->connect(ip("10.0.0.51"), 6881,
                  [&](StreamSocketPtr s) { client = s; });
    sim.run();
    ASSERT_TRUE(client != nullptr);
    ASSERT_TRUE(server != nullptr);
  }

  sim::Simulation sim;
  net::Network network{sim, Rng{1}};
  SocketManager mgr{network};
  metrics::Registry registry;
  net::Host* hostA = nullptr;
  net::Host* hostB = nullptr;
  std::unique_ptr<vnode::VirtualNode> vnA;
  std::unique_ptr<vnode::VirtualNode> vnB;
  std::unique_ptr<vnode::Process> procA;
  std::unique_ptr<vnode::Process> procB;
  std::unique_ptr<SocketApi> apiA;
  std::unique_ptr<SocketApi> apiB;
  ListenerPtr listener;
};

TEST_F(ResetTest, ConnectToClosedPortIsRefusedFast) {
  // No listener at :7000 — the SYN meets an RST (ECONNREFUSED), not five
  // SYN retries and a timeout.
  bool connected = false;
  bool failed = false;
  apiA->connect(ip("10.0.0.51"), 7000,
                [&](StreamSocketPtr) { connected = true; },
                [&] { failed = true; });
  sim.run();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(failed);
  // Refusal arrives in ~1 RTT; SYN-retry exhaustion would take minutes.
  EXPECT_LT(sim.now(), SimTime::zero() + Duration::sec(5));
  EXPECT_GE(registry.value("sockets.rsts_sent"), 1.0);
  // Refusal during connect counts as a failed connect (ECONNREFUSED), not
  // a reset of an established connection.
  EXPECT_GE(registry.value("sockets.connects_failed"), 1.0);
}

TEST_F(ResetTest, CrashResetsEstablishedPeer) {
  StreamSocketPtr client, server;
  establish(client, server);
  bool server_closed = false;
  server->on_close([&] { server_closed = true; });
  bool client_closed = false;
  client->on_close([&] { client_closed = true; });

  // Vnode A dies: its endpoints vanish silently.
  mgr.abort_endpoints_of(ip("10.0.0.1"));
  EXPECT_GE(registry.value("sockets.crash_aborts"), 1.0);
  // The dead process observes nothing — ECONNRESET is for the survivor.
  EXPECT_FALSE(client_closed);

  // B transmits into the void; A's host answers the endpoint-less segment
  // with an RST and B surfaces ECONNRESET via on_close.
  server->send(text_message("are you there?"));
  sim.run();
  EXPECT_TRUE(server_closed);
  EXPECT_FALSE(client_closed);
  EXPECT_GE(registry.value("sockets.resets"), 1.0);
}

TEST_F(ResetTest, CrashCancelsPendingRetransmitTimers) {
  StreamSocketPtr client, server;
  establish(client, server);
  // Make B unreachable so A's send sits in retransmission.
  network.detach_address(ip("10.0.0.51"));
  client->send(text_message("lost"));
  sim.run_until(sim.now() + Duration::sec(10));  // at least one RTO fired
  EXPECT_GT(registry.value("sockets.retransmits"), 0.0);

  // A crashes with the retransmit timer armed. Teardown must cancel it:
  // with B also gone, nothing else is live, so the queue drains to zero
  // instead of ticking a dead socket's timer for another 11 backoffs.
  mgr.abort_endpoints_of(ip("10.0.0.1"));
  listener->stop_accepting();
  listener.reset();
  server.reset();
  sim.run_until(sim.now() + Duration::sec(2));
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST_F(ResetTest, RtoExhaustionSurfacesEtimedoutLocally) {
  StreamSocketPtr client, server;
  establish(client, server);
  bool client_closed = false;
  client->on_close([&] { client_closed = true; });

  // B's address disappears (crash where the address never returns): no
  // RST will ever arrive, so A must give up via retransmit exhaustion.
  mgr.abort_endpoints_of(ip("10.0.0.51"));
  network.detach_address(ip("10.0.0.51"));
  client->send(text_message("anyone home?"));
  sim.run();
  EXPECT_TRUE(client_closed);
  EXPECT_GE(registry.value("sockets.aborts"), 1.0);
  // Exhaustion respects the RTO schedule: well past the first timeouts,
  // bounded by kMaxRetransmitTimeouts * kMaxRto.
  EXPECT_GT(sim.now(), SimTime::zero() + Duration::sec(10));
  EXPECT_LT(sim.now(), SimTime::zero() +
                           kMaxRto * std::int64_t{kMaxRetransmitTimeouts + 1});
}

TEST_F(ResetTest, ListenerDiesWithItsVnode) {
  StreamSocketPtr client, server;
  establish(client, server);
  mgr.abort_endpoints_of(ip("10.0.0.51"));  // B (the listener side) dies

  // New connections to the dead listener's port are refused, not accepted.
  bool connected = false;
  bool failed = false;
  apiA->connect(ip("10.0.0.51"), 6881,
                [&](StreamSocketPtr) { connected = true; },
                [&] { failed = true; });
  sim.run();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(failed);
  EXPECT_EQ(listener->connection_count(), 0u);
}

TEST_F(ResetTest, ReattachedAddressRefusesStaleConnections) {
  // Crash-and-rejoin: the address comes back but the old endpoints are
  // gone — a surviving peer's traffic meets an RST from the reborn node,
  // not silence and not delivery to a ghost socket.
  StreamSocketPtr client, server;
  establish(client, server);
  bool server_closed = false;
  server->on_close([&] { server_closed = true; });

  mgr.abort_endpoints_of(ip("10.0.0.1"));
  network.detach_address(ip("10.0.0.1"));
  sim.run();
  network.reattach_address(ip("10.0.0.1"), *hostA);

  server->send(text_message("welcome back?"));
  sim.run();
  EXPECT_TRUE(server_closed);
}

}  // namespace
}  // namespace p2plab::sockets
