#include "net/packet_pool.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <utility>

#include "common/rng.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace p2plab::net {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

TEST(PacketPool, RecyclesCellsInsteadOfGrowing) {
  PacketPool pool;
  EXPECT_EQ(pool.capacity(), 0u);
  {
    const PacketRef a = pool.acquire(Packet{});
    const PacketRef b = pool.acquire(Packet{});
    EXPECT_EQ(pool.capacity(), 2u);
    EXPECT_EQ(pool.in_flight(), 2u);
    EXPECT_EQ(pool.available(), 0u);
  }
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.available(), 2u);
  const PacketRef c = pool.acquire(Packet{});
  EXPECT_EQ(pool.capacity(), 2u);  // steady state: no growth
  EXPECT_EQ(pool.in_flight(), 1u);
}

TEST(PacketPool, ReleaseDropsOwnedPayloadPromptly) {
  PacketPool pool;
  auto body = std::make_shared<int>(5);
  std::weak_ptr<int> weak = body;
  {
    Packet p;
    p.body = std::move(body);
    const PacketRef ref = pool.acquire(std::move(p));
    EXPECT_FALSE(weak.expired());
  }
  // The cell sits on the free list, but the payload is gone already.
  EXPECT_TRUE(weak.expired());
}

TEST(PacketPool, MoveTransfersOwnership) {
  PacketPool pool;
  PacketRef a = pool.acquire(Packet{});
  a->seq = 77;
  PacketRef b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(b);
  EXPECT_EQ(b->seq, 77u);
  EXPECT_EQ(pool.in_flight(), 1u);
}

TEST(PacketPool, OrphanedRefSurvivesPoolDestruction) {
  PacketRef survivor;
  {
    PacketPool pool;
    survivor = pool.acquire(Packet{});
    const PacketRef returned = pool.acquire(Packet{});
    // `returned` goes back to the free list; `survivor` stays out when the
    // pool dies — the teardown-order case (events outliving a Network).
  }
  ASSERT_TRUE(survivor);
  survivor = PacketRef{};  // frees the orphaned cell; must be ASan-clean
  EXPECT_FALSE(survivor);
}

// The drop paths return refs with no explicit recycling code: once the
// traffic drains — despite loss, queue overflow, and a mid-flight crash
// that withdraws the destination — every cell must be back in the pool.
TEST(PacketPool, CrashAndDropChurnReturnsEveryRef) {
  metrics::Registry reg;  // outlives the network's bound counters
  sim::Simulation sim;
  Network network{sim, Rng{7}};
  network.bind_metrics(reg);
  Host& a = network.add_host("a", ip("10.0.0.1"));
  Host& b = network.add_host("b", ip("10.0.0.2"));
  for (Host* host : {&a, &b}) {
    const CidrBlock self{host->admin_ip(), 32};
    const ipfw::PipeId up = host->firewall().create_pipe(
        {.bandwidth = Bandwidth::mbps(10),
         .delay = Duration::ms(5),
         .loss_rate = 0.2,
         .queue_limit = DataSize::bytes(6000)});  // 4 frames: forces overflow
    const ipfw::PipeId down = host->firewall().create_pipe(
        {.bandwidth = Bandwidth::mbps(10), .delay = Duration::ms(5)});
    host->firewall().add_rule({.number = 100,
                               .src = self,
                               .dir = ipfw::RuleDir::kOut,
                               .action = ipfw::RuleAction::kPipe,
                               .pipe = up});
    host->firewall().add_rule({.number = 110,
                               .dst = self,
                               .dir = ipfw::RuleDir::kIn,
                               .action = ipfw::RuleAction::kPipe,
                               .pipe = down});
  }
  int delivered = 0;
  network.set_socket_demux([&](Packet&&) { ++delivered; });
  auto blast = [&](Ipv4Addr src, Ipv4Addr dst) {
    for (int i = 0; i < 64; ++i) {
      Packet p;
      p.src = src;
      p.dst = dst;
      p.wire_size = DataSize::bytes(1500);
      p.flow = static_cast<ipfw::FlowId>(i);
      network.send(std::move(p));
    }
  };
  blast(ip("10.0.0.1"), ip("10.0.0.2"));
  // Let part of the burst into pipes and NICs, then crash the destination
  // mid-flight: its address withdraws and in-flight packets go unroutable.
  for (int i = 0; i < 40; ++i) sim.step();
  EXPECT_GT(network.pool().in_flight(), 0u);
  network.detach_address(ip("10.0.0.2"));
  blast(ip("10.0.0.1"), ip("10.0.0.2"));  // sent into the void
  sim.run();
  EXPECT_EQ(network.pool().in_flight(), 0u);
  EXPECT_EQ(network.pool().available(), network.pool().capacity());
  EXPECT_GT(network.pool().capacity(), 0u);
  EXPECT_LT(reg.value("net.packets_delivered"), 128.0);  // drops did happen
}

}  // namespace
}  // namespace p2plab::net
