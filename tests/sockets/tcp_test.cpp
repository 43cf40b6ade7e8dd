// The kTcp transport model: slow start, fast retransmit on triple
// duplicate ACKs, NewReno recovery, and the RTO path's cwnd collapse —
// the loss-responsive behaviour the kFlow model deliberately lacks.
#include <gtest/gtest.h>

#include <vector>

#include "metrics/registry.hpp"
#include "sockets/socket.hpp"

namespace p2plab::sockets {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }
CidrBlock cidr(const char* text) { return *CidrBlock::parse(text); }

class TcpSocketTest : public ::testing::Test {
 protected:
  TcpSocketTest() {
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

  /// Shape A's uplink through a pipe and keep the id so tests can drop a
  /// deterministic window of segments (set_down).
  void shape_uplink_a(Bandwidth bw, double loss_rate = 0.0) {
    uplink = hostA->firewall().create_pipe(
        {.bandwidth = bw, .delay = Duration::ms(30),
         .loss_rate = loss_rate, .queue_limit = DataSize::mib(8)});
    hostA->firewall().add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
                                .dst = CidrBlock::any(),
                                .dir = ipfw::RuleDir::kOut,
                                .action = ipfw::RuleAction::kPipe,
                                .pipe = uplink});
  }

  ipfw::Pipe& uplink_pipe() { return hostA->firewall().pipe(uplink); }

  Message block(std::uint64_t bytes) {
    Message m;
    m.type = 9;
    m.size = DataSize::bytes(bytes);
    return m;
  }

  /// Drop every segment the uplink pipe admits inside [from, to).
  void drop_window(double from_s, double to_s) {
    sim.schedule_at(SimTime::zero() + Duration::seconds(from_s),
                    [this] { uplink_pipe().set_down(true); });
    sim.schedule_at(SimTime::zero() + Duration::seconds(to_s),
                    [this] { uplink_pipe().set_down(false); });
  }

  sim::Simulation sim;
  net::Network network{sim, Rng{1}};
  SocketManager mgr{network, TransportModel::kTcp};
  metrics::Registry registry;
  ipfw::PipeId uplink = 0;
  net::Host* hostA = nullptr;
  net::Host* hostB = nullptr;
  std::unique_ptr<vnode::VirtualNode> vnA;
  std::unique_ptr<vnode::VirtualNode> vnB;
  std::unique_ptr<vnode::Process> procA;
  std::unique_ptr<vnode::Process> procB;
  std::unique_ptr<SocketApi> apiA;
  std::unique_ptr<SocketApi> apiB;
};

TEST_F(TcpSocketTest, SlowStartGrowsCwndByAckedBytes) {
  shape_uplink_a(Bandwidth::kbps(256));
  StreamSocketPtr client;
  int received = 0;
  auto listener = apiB->listen(6881, [&](StreamSocketPtr s) {
    s->on_message([&](Message&&) { ++received; });
  });
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    client = s;
    for (int i = 0; i < 40; ++i) s->send(block(1024));
  });
  sim.run();
  ASSERT_TRUE(client);
  EXPECT_EQ(received, 40);
  // Clean path, all below ssthresh: every acked byte grew the window.
  EXPECT_EQ(client->cwnd(), kTcpInitialCwnd.count_bytes() + 40ull * 1024);
  EXPECT_EQ(client->ssthresh(), kSendWindow.count_bytes());
  EXPECT_EQ(mgr.metrics().retransmits.value(), 0u);
  EXPECT_EQ(mgr.metrics().cwnd_halvings.value(), 0u);
}

TEST_F(TcpSocketTest, TripleDupAckTriggersFastRetransmitBeforeRto) {
  // 1 KiB messages at 256 kb/s serialize in ~33 ms; the initial window
  // keeps ~14 in flight and acks clock out new segments every ~33 ms from
  // t~0.13 s. A 70 ms outage while the ack clock is still pumping drops
  // the couple of segments enqueued in that window; the many segments
  // sent behind the hole generate duplicate ACKs well inside the 1 s RTO
  // floor — recovery must come from the dup-ack path.
  shape_uplink_a(Bandwidth::kbps(256));
  std::vector<int> received;
  auto listener = apiB->listen(6881, [&](StreamSocketPtr s) {
    s->on_message([&](Message&& m) {
      received.push_back(static_cast<int>(m.size.count_bytes()));
    });
  });
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    for (int i = 0; i < 50; ++i) s->send(block(1024));
  });
  drop_window(0.2, 0.27);
  sim.run();
  EXPECT_EQ(received.size(), 50u);
  EXPECT_GE(mgr.metrics().fast_retransmits.value(), 1u);
  EXPECT_EQ(mgr.metrics().rto_recoveries.value(), 0u)
      << "loss inside a flowing window must recover via dup-acks, not RTO";
  EXPECT_GE(mgr.metrics().cwnd_halvings.value(), 1u);
  EXPECT_EQ(mgr.metrics().aborts.value(), 0u);
}

TEST_F(TcpSocketTest, FullWindowLossFallsBackToRtoAndCollapsesCwnd) {
  // A 1.2 s outage swallows the whole flight *and* the ack clock: only
  // the retransmission timer can restart the transfer, at cwnd = 1 MSS.
  shape_uplink_a(Bandwidth::kbps(256));
  StreamSocketPtr client;
  int received = 0;
  auto listener = apiB->listen(6881, [&](StreamSocketPtr s) {
    s->on_message([&](Message&&) { ++received; });
  });
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    client = s;
    for (int i = 0; i < 100; ++i) s->send(block(1024));
  });
  drop_window(1.0, 2.2);
  sim.run();
  ASSERT_TRUE(client);
  EXPECT_EQ(received, 100);
  EXPECT_GE(mgr.metrics().rto_recoveries.value(), 1u);
  EXPECT_EQ(mgr.metrics().aborts.value(), 0u);
}

TEST_F(TcpSocketTest, LossyPathStillDeliversEverythingInOrder) {
  // 20% random loss: fast retransmit + RTO recovery together must hand
  // the application the exact ordered byte stream.
  shape_uplink_a(Bandwidth::mbps(10), /*loss_rate=*/0.2);
  std::vector<int> received;
  auto listener = apiB->listen(6881, [&](StreamSocketPtr s) {
    s->on_message([&](Message&& m) {
      received.push_back(m.type == 9 ? static_cast<int>(m.size.count_bytes())
                                     : -1);
    });
  });
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    for (std::uint64_t i = 0; i < 50; ++i) s->send(block(1024 + i));
  });
  sim.run();
  ASSERT_EQ(received.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(received[i], 1024 + static_cast<int>(i));
  }
  EXPECT_GE(mgr.metrics().retransmits.value(), 1u);
  EXPECT_EQ(mgr.metrics().aborts.value(), 0u);
}

TEST(FlowModelTest, KeepsStaticWindowAndNoTcpCounters) {
  // Same kind of outage under the legacy flow model: it recovers through
  // the go-back-N RTO path and never touches the TCP counters or cwnd.
  sim::Simulation sim;
  net::Network network{sim, Rng{1}};
  SocketManager mgr{network};  // default transport: kFlow
  metrics::Registry registry;
  mgr.bind_metrics(registry);
  auto& hostA = network.add_host("node1", ip("192.168.38.1"));
  auto& hostB = network.add_host("node2", ip("192.168.38.2"));
  vnode::VirtualNode vnA{hostA, 1, ip("10.0.0.1")};
  vnode::VirtualNode vnB{hostB, 2, ip("10.0.0.51")};
  vnode::Process procA{vnA};
  vnode::Process procB{vnB};
  SocketApi apiA{mgr, procA};
  SocketApi apiB{mgr, procB};
  const ipfw::PipeId uplink = hostA.firewall().create_pipe(
      {.bandwidth = Bandwidth::kbps(256), .delay = Duration::ms(30),
       .queue_limit = DataSize::mib(8)});
  hostA.firewall().add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
                             .dst = CidrBlock::any(),
                             .dir = ipfw::RuleDir::kOut,
                             .action = ipfw::RuleAction::kPipe,
                             .pipe = uplink});
  StreamSocketPtr client;
  int received = 0;
  auto listener = apiB.listen(6882, [&](StreamSocketPtr s) {
    s->on_message([&](Message&&) { ++received; });
  });
  apiA.connect(ip("10.0.0.51"), 6882, [&](StreamSocketPtr s) {
    client = s;
    for (int i = 0; i < 30; ++i) {
      Message m;
      m.type = 9;
      m.size = DataSize::bytes(1024);
      s->send(m);
    }
  });
  sim.schedule_at(SimTime::zero() + Duration::seconds(1.0),
                  [&] { hostA.firewall().pipe(uplink).set_down(true); });
  sim.schedule_at(SimTime::zero() + Duration::seconds(2.2),
                  [&] { hostA.firewall().pipe(uplink).set_down(false); });
  sim.run();
  ASSERT_TRUE(client);
  EXPECT_EQ(received, 30);
  EXPECT_EQ(client->cwnd(), kSendWindow.count_bytes());
  EXPECT_EQ(mgr.metrics().fast_retransmits.value(), 0u);
  EXPECT_EQ(mgr.metrics().rto_recoveries.value(), 0u);
  EXPECT_EQ(mgr.metrics().cwnd_halvings.value(), 0u);
}

}  // namespace
}  // namespace p2plab::sockets
