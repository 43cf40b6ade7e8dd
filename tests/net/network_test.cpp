#include "net/network.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "metrics/registry.hpp"

namespace p2plab::net {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }
CidrBlock cidr(const char* text) { return *CidrBlock::parse(text); }

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() {
    network.bind_metrics(reg);
    network.set_socket_demux([this](Packet&& p) {
      deliveries.push_back(sim.now());
      delivered_deferral.push_back(p.deferred_delay);
    });
  }

  static Packet packet(Ipv4Addr src, Ipv4Addr dst, DataSize size) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.wire_size = size;
    p.flow = 1;
    return p;
  }

  metrics::Registry reg;  // outlives the network's bound counters
  sim::Simulation sim;
  Network network{sim, Rng{1}};
  std::vector<SimTime> deliveries;           // demux arrival instants
  std::vector<Duration> delivered_deferral;  // deferred_delay on arrival
};

TEST_F(NetworkTest, HostRegistration) {
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  EXPECT_EQ(network.host_of(ip("192.168.38.1")), &a);
  EXPECT_EQ(network.host_of(ip("192.168.38.2")), nullptr);
  a.add_alias(ip("10.0.0.1"));
  EXPECT_EQ(network.host_of(ip("10.0.0.1")), &a);
  EXPECT_EQ(network.host_count(), 1u);
}

TEST_F(NetworkTest, BasicDeliveryLatency) {
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  network.add_host("node2", ip("192.168.38.2"));
  (void)a;
  network.send(
      packet(ip("192.168.38.1"), ip("192.168.38.2"), DataSize::bytes(64)));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // Path: src cpu (10us/2cpus=5us) + NIC tx (64B@1Gbps + 20us) + switch
  // (30us) + NIC rx + dst cpu. All well under a millisecond.
  const double us = (deliveries[0] - SimTime::zero()).to_micros();
  EXPECT_GT(us, 50.0);
  EXPECT_LT(us, 200.0);
  EXPECT_EQ(reg.value("net.packets_delivered"), 1.0);
}

TEST_F(NetworkTest, UnroutableDropped) {
  network.add_host("node1", ip("192.168.38.1"));
  network.send(packet(ip("192.168.38.1"), ip("10.99.0.1"),
                      DataSize::bytes(64)));
  sim.run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(reg.value("net.packets_unroutable"), 1.0);
}

TEST_F(NetworkTest, DenyRuleDrops) {
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  network.add_host("node2", ip("192.168.38.2"));
  a.firewall().add_rule({.number = 10, .src = CidrBlock::any(),
                         .dst = cidr("192.168.38.2/32"),
                         .action = ipfw::RuleAction::kDeny});
  network.send(packet(ip("192.168.38.1"), ip("192.168.38.2"),
                      DataSize::bytes(64)));
  sim.run();
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(reg.value("net.packets_dropped_fw"), 1.0);
}

TEST_F(NetworkTest, VnodePipesShapeTraffic) {
  // The paper's setup: a vnode with a DSL-like uplink pipe on its host.
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  Host& b = network.add_host("node2", ip("192.168.38.2"));
  a.add_alias(ip("10.0.0.1"));
  b.add_alias(ip("10.0.0.51"));
  const auto up = a.firewall().create_pipe(
      {.bandwidth = Bandwidth::kbps(128), .delay = Duration::ms(30)});
  a.firewall().add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
                         .dst = CidrBlock::any(),
                         .action = ipfw::RuleAction::kPipe, .pipe = up});
  const auto down = b.firewall().create_pipe(
      {.bandwidth = Bandwidth::mbps(2), .delay = Duration::ms(30)});
  b.firewall().add_rule({.number = 100, .src = CidrBlock::any(),
                         .dst = cidr("10.0.0.51/32"),
                         .action = ipfw::RuleAction::kPipe, .pipe = down});

  network.send(
      packet(ip("10.0.0.1"), ip("10.0.0.51"), DataSize::kib(16)));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  // Uplink serialization 1.024 s + 30 ms + 30 ms + downlink serialization
  // ~65 ms + fabric/cpu noise.
  const double sec = deliveries[0].to_seconds();
  EXPECT_NEAR(sec, 1.024 + 0.030 + 0.030 + 0.0655, 0.01);
}

TEST_F(NetworkTest, CoLocatedVnodesStillShaped) {
  // Figure 9's prerequisite: two vnodes folded onto one host keep their
  // emulated access links even though traffic never leaves the machine.
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  a.add_alias(ip("10.0.0.1"));
  a.add_alias(ip("10.0.0.2"));
  const auto up = a.firewall().create_pipe(
      {.bandwidth = Bandwidth::kbps(128), .delay = Duration::ms(30)});
  a.firewall().add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
                         .dst = CidrBlock::any(),
                         .action = ipfw::RuleAction::kPipe, .pipe = up});
  network.send(
      packet(ip("10.0.0.1"), ip("10.0.0.2"), DataSize::kib(16)));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_GT(deliveries[0].to_seconds(), 1.05);  // 1.024 s + 30 ms
  // ...but no NIC traversal: the NIC pipes saw nothing.
  EXPECT_EQ(a.nic_tx().stats().packets, 0u);
}

TEST_F(NetworkTest, GroupLatencyPipeApplies) {
  // One packet can match both the vnode pipe and a group-latency pipe.
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  network.add_host("node2", ip("192.168.38.2")).add_alias(ip("10.2.2.117"));
  a.add_alias(ip("10.1.3.207"));
  const auto up = a.firewall().create_pipe(
      {.bandwidth = Bandwidth::mbps(8), .delay = Duration::ms(20)});
  const auto group = a.firewall().create_pipe({.delay = Duration::ms(400)});
  a.firewall().add_rule({.number = 100, .src = cidr("10.1.3.207/32"),
                         .dst = CidrBlock::any(),
                         .action = ipfw::RuleAction::kPipe, .pipe = up});
  a.firewall().add_rule({.number = 200, .src = cidr("10.1.0.0/16"),
                         .dst = cidr("10.2.0.0/16"),
                         .action = ipfw::RuleAction::kPipe, .pipe = group});
  network.send(packet(ip("10.1.3.207"), ip("10.2.2.117"), DataSize::bytes(64)));
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_NEAR(deliveries[0].to_millis(), 420.0, 1.0);
}

TEST_F(NetworkTest, NicIsSharedBottleneck) {
  // Aggregate vnode traffic beyond NIC capacity must be limited by it:
  // the mechanism behind the folding limit the paper found. Two vnodes
  // burst one packet more than the NIC queue holds.
  Host& a = network.add_host("node1", ip("192.168.38.1"),
                             HostConfig{.nic_bandwidth = Bandwidth::mbps(10)});
  network.add_host("node2", ip("192.168.38.2")).add_alias(ip("10.0.1.1"));
  a.add_alias(ip("10.0.0.1"));
  a.add_alias(ip("10.0.0.2"));

  const DataSize size = DataSize::kib(64);
  const std::size_t fit = kNicQueue.count_bytes() / size.count_bytes();
  ASSERT_EQ(fit, 8u);
  for (std::size_t i = 0; i <= fit; ++i) {
    Packet p = packet(i % 2 == 0 ? ip("10.0.0.1") : ip("10.0.0.2"),
                      ip("10.0.1.1"), size);
    p.flow = static_cast<ipfw::FlowId>(i % 2);
    network.send(std::move(p));
  }
  sim.run();
  ASSERT_EQ(deliveries.size(), fit);
  EXPECT_EQ(a.nic_tx().stats().dropped, 1u);  // the one over the queue
  // 8 x 64 KiB = 512 KiB at 10 Mb/s ~ 0.42 s.
  EXPECT_NEAR(deliveries.back().to_seconds(), 0.42, 0.01);
}

TEST_F(NetworkTest, ScanCostAddsLatency) {
  // Figure 6's mechanism end to end: filler rules slow every packet down.
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  network.add_host("node2", ip("192.168.38.2"));
  const SimTime sent1 = sim.now();
  network.send(packet(ip("192.168.38.1"), ip("192.168.38.2"),
                      DataSize::bytes(64)));
  sim.run();

  a.firewall().add_filler_rules(1000, 20000);
  const SimTime sent2 = sim.now();
  network.send(packet(ip("192.168.38.1"), ip("192.168.38.2"),
                      DataSize::bytes(64)));
  sim.run();
  ASSERT_EQ(deliveries.size(), 2u);
  const double baseline_us = (deliveries[0] - sent1).to_micros();
  const double padded_us = (deliveries[1] - sent2).to_micros();
  // 20000 rules x 50 ns = 1 ms of serial scan latency, one-way.
  EXPECT_NEAR(padded_us - baseline_us, 1000.0, 50.0);
}

TEST_F(NetworkTest, HandoffStampCarriesSourcePipeDelays) {
  // The route every Platform run takes: source pipes serve only their
  // bandwidth stage and defer their fixed delays into the packet; the
  // handoff stamp folds those delays, NIC tx and the switch in.
  struct Pushed {
    SimTime at;  // when the source side let go: its bandwidth exit
    SimTime stamp;
    Packet packet;
  };
  struct RecordingHandoff : FabricHandoff {
    sim::Simulation* sim = nullptr;
    std::vector<Pushed> pushed;
    bool push(std::size_t, std::size_t, std::uint64_t, SimTime stamp,
              Packet packet) override {
      pushed.push_back({sim->now(), stamp, std::move(packet)});
      return true;
    }
  } handoff;
  handoff.sim = &sim;
  network.set_fabric_handoff(&handoff);

  Host& a = network.add_host("node1", ip("192.168.38.1"));
  Host& b = network.add_host("node2", ip("192.168.38.2"));
  a.add_alias(ip("10.1.0.1"));
  a.add_alias(ip("10.1.0.2"));
  b.add_alias(ip("10.2.0.1"));
  const auto up = a.firewall().create_pipe(
      {.bandwidth = Bandwidth::mbps(8), .delay = Duration::ms(20)});
  const auto group = a.firewall().create_pipe({.delay = Duration::ms(400)});
  a.firewall().add_rule({.number = 100, .src = cidr("10.1.0.1/32"),
                         .dst = CidrBlock::any(), .dir = ipfw::RuleDir::kOut,
                         .action = ipfw::RuleAction::kPipe, .pipe = up});
  a.firewall().add_rule({.number = 200, .src = cidr("10.1.0.0/16"),
                         .dst = cidr("10.2.0.0/16"),
                         .dir = ipfw::RuleDir::kOut,
                         .action = ipfw::RuleAction::kPipe, .pipe = group});
  const auto down = b.firewall().create_pipe({.delay = Duration::ms(50)});
  b.firewall().add_rule({.number = 100, .src = CidrBlock::any(),
                         .dst = cidr("10.2.0.1/32"), .dir = ipfw::RuleDir::kIn,
                         .action = ipfw::RuleAction::kPipe, .pipe = down});

  // The source's bandwidth exit is its CPU work (the stack plus a scan of
  // both rules) followed by the access pipe's serialization time.
  const Duration src_cpu = kPacketCpuCost + ipfw::kPerRuleCost * 2;
  network.send(packet(ip("10.1.0.1"), ip("10.2.0.1"), DataSize::bytes(1000)));
  sim.run();
  ASSERT_EQ(handoff.pushed.size(), 1u);
  const Pushed& out = handoff.pushed[0];
  const Duration nic_tx = Duration::us(8) + kNicLatency;  // 1 Gb/s
  // 1000 B at 8 Mb/s.
  EXPECT_EQ(out.at, SimTime::zero() + src_cpu + Duration::ms(1));
  EXPECT_EQ(out.packet.deferred_delay, Duration::ms(420));
  EXPECT_EQ(out.stamp, out.at + Duration::ms(20) + Duration::ms(400) + nic_tx +
                           kSwitchLatency);
  EXPECT_TRUE(deliveries.empty());  // the handoff owns it now

  // Re-enter at the stamp, as the engine's merge does: the destination's
  // 50 ms pipe is served in simulated time, not deferred.
  sim.schedule_at(out.stamp, [this, &out] {
    network.fabric_arrive(network.pool().acquire(Packet(out.packet)));
  });
  sim.run();
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(delivered_deferral[0], Duration::ms(420));  // unchanged
  EXPECT_GE(deliveries[0], out.stamp + Duration::ms(50));
  EXPECT_LT(deliveries[0], out.stamp + Duration::ms(51));

  // Loopback between co-located vnodes never reaches the handoff; its
  // access pipe serves the delay in place.
  const SimTime sent = sim.now();
  network.send(packet(ip("10.1.0.1"), ip("10.1.0.2"), DataSize::bytes(1000)));
  sim.run();
  EXPECT_EQ(handoff.pushed.size(), 1u);
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(delivered_deferral[1], Duration::zero());
  // Both passes through node1's stack scan its two rules.
  EXPECT_EQ(deliveries[1],
            sent + src_cpu + Duration::ms(1) + Duration::ms(20) + src_cpu);
}

TEST_F(NetworkTest, CpuUtilizationTracksWork) {
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  a.charge_cpu(Duration::ms(10));
  sim.run_until(SimTime::zero() + Duration::ms(100));
  EXPECT_NEAR(a.cpu_utilization(), 0.05, 1e-6);  // 10ms over 200ms capacity
}

TEST_F(NetworkTest, ChargeCpuQueues) {
  Host& a = network.add_host("node1", ip("192.168.38.1"));
  const Duration d1 = a.charge_cpu(Duration::ms(10));
  const Duration d2 = a.charge_cpu(Duration::ms(10));
  // Serial latency is the full work; the aggregate server drains at
  // 2 CPUs, so the second charge queues 5 ms behind the first.
  EXPECT_EQ(d1, Duration::ms(10));
  EXPECT_EQ(d2, Duration::ms(15));
}

TEST_F(NetworkTest, DuplicateAddressAsserts) {
  network.add_host("node1", ip("192.168.38.1"));
  EXPECT_DEATH(network.add_host("node2", ip("192.168.38.1")),
               "assigned twice");
}

}  // namespace
}  // namespace p2plab::net
