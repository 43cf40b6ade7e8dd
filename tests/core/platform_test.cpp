#include "core/platform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "metrics/health.hpp"
#include "metrics/recorder.hpp"

namespace p2plab::core {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

/// The vnode holding address `text`.
std::size_t vnode_at(const Platform& platform, const char* text) {
  return *platform.topology().node_index(ip(text));
}

TEST(Platform, DeploysVnodesInBlocks) {
  Platform platform(topology::homogeneous_dsl(160),
                    PlatformConfig{.physical_nodes = 16});
  EXPECT_EQ(platform.vnode_count(), 160u);
  EXPECT_EQ(platform.physical_node_count(), 16u);
  EXPECT_EQ(platform.folding_ratio(), 10u);
  EXPECT_EQ(platform.pnode_of_vnode(0), 0u);
  EXPECT_EQ(platform.pnode_of_vnode(9), 0u);
  EXPECT_EQ(platform.pnode_of_vnode(10), 1u);
  EXPECT_EQ(platform.pnode_of_vnode(159), 15u);
  // Every pnode hosts exactly 10 aliases.
  for (std::size_t p = 0; p < 16; ++p) {
    EXPECT_EQ(platform.host(p).aliases().size(), 10u);
  }
}

/// pnode -> shard table of a P-pnode, K-shard platform. Worker threads
/// start only in run(), so constructing one is cheap.
std::vector<std::size_t> shard_layout(std::size_t pnodes, std::size_t shards) {
  const Platform platform(
      topology::homogeneous_dsl(pnodes),
      PlatformConfig{.physical_nodes = pnodes, .shards = shards});
  std::vector<std::size_t> layout;
  for (std::size_t p = 0; p < pnodes; ++p) {
    layout.push_back(platform.shard_of_pnode(p));
  }
  return layout;
}

TEST(Platform, ShardsOwnContiguousCapacityBlocks) {
  // Shard s owns the next P/K pnodes, the first P % K shards one more.
  // Not p*K/P striping, which gives 0 0 0 1 1 2 2 2 3 3 at P=10, K=4.
  EXPECT_EQ(shard_layout(10, 4),
            (std::vector<std::size_t>{0, 0, 0, 1, 1, 1, 2, 2, 3, 3}));
  // The emubench swarm-k2 shape.
  EXPECT_EQ(shard_layout(3, 2), (std::vector<std::size_t>{0, 0, 1}));
  // Fig 10 at 1440 clients: 46 pnodes split 12/12/11/11.
  const std::vector<std::size_t> fig10 = shard_layout(46, 4);
  EXPECT_TRUE(std::is_sorted(fig10.begin(), fig10.end()));
  std::vector<std::size_t> sizes(4, 0);
  for (const std::size_t s : fig10) ++sizes.at(s);
  EXPECT_EQ(sizes, (std::vector<std::size_t>{12, 12, 11, 11}));
}

TEST(Platform, ShardCountIsClampedToPnodes) {
  const Platform platform(topology::homogeneous_dsl(6),
                          PlatformConfig{.physical_nodes = 3, .shards = 8});
  EXPECT_EQ(platform.shard_count(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(platform.shard_of_pnode(p), p);
  }
}

TEST(Platform, TwoRulesPerHostedVnode) {
  // The paper: "Two rules are needed for each hosted virtual node (one for
  // incoming packets, the other one for outgoing packets)."
  Platform platform(topology::homogeneous_dsl(40),
                    PlatformConfig{.physical_nodes = 4});
  for (std::size_t p = 0; p < 4; ++p) {
    EXPECT_EQ(platform.host(p).firewall().rule_count(), 20u);
    EXPECT_EQ(platform.host(p).firewall().pipe_count(), 20u);
  }
}

TEST(Platform, Figure7RuleCountOnHostOf10_1_3) {
  // The paper's worked example: the physical node hosting 10.1.3.207 needs
  // two rules per hosted vnode plus four inter-group latency rules
  // (10.1.3->10.1.1, 10.1.3->10.1.2 at 100 ms; 10.1->10.2 at 400 ms;
  // 10.1->10.3 at 600 ms).
  auto topo = topology::figure7();
  // One pnode per zone block of 250/250/250/1000/1000 = 2750 nodes; use
  // 11 pnodes -> 250 vnodes each, so pnode 2 hosts exactly 10.1.3.*.
  Platform platform(topo, PlatformConfig{.physical_nodes = 11});
  net::Host& host = platform.host(2);
  ASSERT_EQ(host.aliases().size(), 250u);
  EXPECT_EQ(host.aliases().front(), ip("10.1.3.1"));
  // 2*250 vnode rules + 4 group rules.
  EXPECT_EQ(host.firewall().rule_count(), 504u);

  // The group rules impose exactly the paper's latencies.
  const auto to_10_1_1 =
      host.firewall().classify(ip("10.1.3.207"), ip("10.1.1.5"),
                               ipfw::RuleDir::kOut);
  ASSERT_EQ(to_10_1_1.pipes.size(), 2u);  // access pipe + 100 ms pipe
  EXPECT_EQ(host.firewall().pipe(to_10_1_1.pipes[1]).config().delay,
            Duration::ms(100));
  const auto to_10_2 =
      host.firewall().classify(ip("10.1.3.207"), ip("10.2.2.117"),
                               ipfw::RuleDir::kOut);
  ASSERT_EQ(to_10_2.pipes.size(), 2u);
  EXPECT_EQ(host.firewall().pipe(to_10_2.pipes[1]).config().delay,
            Duration::ms(400));
  const auto to_10_3 =
      host.firewall().classify(ip("10.1.3.207"), ip("10.3.0.7"),
                               ipfw::RuleDir::kOut);
  ASSERT_EQ(to_10_3.pipes.size(), 2u);
  EXPECT_EQ(host.firewall().pipe(to_10_3.pipes[1]).config().delay,
            Duration::ms(600));
  // Same-subnet traffic only passes the access pipe on the way out; the
  // peer's downlink pipe applies on the incoming pass (even co-located).
  const auto local_out = host.firewall().classify(
      ip("10.1.3.207"), ip("10.1.3.5"), ipfw::RuleDir::kOut);
  EXPECT_EQ(local_out.pipes.size(), 1u);
  const auto local_in = host.firewall().classify(
      ip("10.1.3.207"), ip("10.1.3.5"), ipfw::RuleDir::kIn);
  EXPECT_EQ(local_in.pipes.size(), 1u);
}

TEST(Platform, PingThroughDslPair) {
  // Two DSL vnodes: RTT = 4 x 30 ms access latency + serialization + eps.
  Platform platform(topology::homogeneous_dsl(2),
                    PlatformConfig{.physical_nodes = 2});
  const auto rtt = platform.ping(vnode_at(platform, "10.0.0.1"),
                                 vnode_at(platform, "10.0.0.2"));
  ASSERT_TRUE(rtt.has_value());
  // 4 x 30 ms access latency + 2 x 4 ms uplink serialization of the 64 B
  // probe at 128 kb/s + downlink/fabric/CPU epsilon.
  EXPECT_NEAR(rtt->to_millis(), 128.7, 2.0);
}

TEST(Platform, Figure7PingMatches853ms) {
  // The paper measures 853 ms between 10.1.3.207 and 10.2.2.117:
  // 20 + 400 + 5 out, 425 back, ~3 ms of firewall/underlying network.
  Platform platform(topology::figure7(),
                    PlatformConfig{.physical_nodes = 11});
  const auto rtt = platform.ping(vnode_at(platform, "10.1.3.207"),
                                 vnode_at(platform, "10.2.2.117"));
  ASSERT_TRUE(rtt.has_value());
  EXPECT_NEAR(rtt->to_millis(), 853.0, 6.0);
}

TEST(Platform, PingIsShardCountInvariant) {
  // The echo crosses shards through the engine's handoff like any other
  // datagram: the RTT does not depend on the partition.
  auto rtt_at = [](std::size_t shards) {
    Platform platform(topology::figure7(),
                      PlatformConfig{.physical_nodes = 11, .shards = shards});
    return platform.ping(vnode_at(platform, "10.1.3.207"),
                         vnode_at(platform, "10.2.2.117"));
  };
  const auto one = rtt_at(1);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one, rtt_at(2));
  EXPECT_EQ(one, rtt_at(4));
}

TEST(Platform, PingRttGrowsLinearlyWithFillerRules) {
  // Figure 6's sweep at the platform level.
  Platform platform(topology::homogeneous_dsl(2),
                    PlatformConfig{.physical_nodes = 2});
  auto measure = [&] { return platform.ping(0, 1).value(); };
  const Duration base = measure();
  platform.host(0).firewall().add_filler_rules(100000, 10000);
  const Duration at_10k = measure();
  platform.host(0).firewall().add_filler_rules(200000, 10000);
  const Duration at_20k = measure();
  // Each 10k rules adds ~2 x 0.5 ms (out on the way there, in on the way
  // back, both on host 0).
  EXPECT_NEAR((at_10k - base).to_millis(), 1.0, 0.1);
  EXPECT_NEAR((at_20k - at_10k).to_millis(), 1.0, 0.1);
}

TEST(Platform, ProcessesHaveBindip) {
  Platform platform(topology::homogeneous_dsl(4),
                    PlatformConfig{.physical_nodes = 2});
  for (std::size_t i = 0; i < 4; ++i) {
    const auto bindip = platform.process(i).getenv("BINDIP");
    ASSERT_TRUE(bindip.has_value());
    EXPECT_EQ(*bindip, platform.vnode(i).ip().to_string());
    EXPECT_EQ(platform.api(i).effective_bind_address(),
              platform.vnode(i).ip());
  }
}

TEST(Platform, SingleMachineFoldsEverything) {
  Platform platform(topology::homogeneous_dsl(80),
                    PlatformConfig{.physical_nodes = 1});
  EXPECT_EQ(platform.folding_ratio(), 80u);
  EXPECT_EQ(platform.host(0).aliases().size(), 80u);
  EXPECT_EQ(platform.host(0).firewall().rule_count(), 160u);
}

TEST(Platform, GroupRulesFollowEveryAccessRule) {
  // Two rules per vnode from number 100 pass 60000 once a pnode hosts
  // more than 29 950 vnodes; the group rules must still sort after the
  // last vnode's access rules, so its packets cross [up, group].
  topology::Topology topo;
  const auto a = topo.add_zone("a", *CidrBlock::parse("10.1.0.0/16"), 15000,
                               topology::dsl_2m());
  const auto b = topo.add_zone("b", *CidrBlock::parse("10.2.0.0/16"), 15000,
                               topology::dsl_2m());
  topo.add_latency(a, b, Duration::ms(100));
  Platform platform(topo, PlatformConfig{.physical_nodes = 1});
  ipfw::Firewall& fw = platform.host(0).firewall();
  EXPECT_EQ(fw.rule_count(), 2u * 30000 + 2);

  const topology::Topology& t = platform.topology();
  const auto out = fw.classify(t.node_address(29999), t.node_address(0),
                               ipfw::RuleDir::kOut);
  ASSERT_EQ(out.pipes.size(), 2u);
  EXPECT_EQ(fw.pipe(out.pipes[0]).config().bandwidth,
            t.link_of_node(29999).up);
  EXPECT_EQ(fw.pipe(out.pipes[0]).config().delay,
            t.link_of_node(29999).latency);
  EXPECT_EQ(fw.pipe(out.pipes[1]).config().delay, Duration::ms(100));
}

TEST(Platform, TotalRulesAccounting) {
  Platform platform(topology::homogeneous_dsl(40),
                    PlatformConfig{.physical_nodes = 4});
  EXPECT_EQ(platform.total_rules(), 80u);
}

TEST(Platform, SocketsWorkAcrossTheDeployment) {
  Platform platform(topology::homogeneous_dsl(4),
                    PlatformConfig{.physical_nodes = 2});
  int echoed = 0;
  auto listener =
      platform.api(0).listen(7000, [&](sockets::StreamSocketPtr s) {
        s->on_message([&echoed, s](sockets::Message&& m) {
          ++echoed;
          s->send(std::move(m));
        });
      });
  int replies = 0;
  for (std::size_t i = 1; i < 4; ++i) {
    platform.api(i).connect(
        platform.vnode(0).ip(), 7000, [&](sockets::StreamSocketPtr s) {
          s->on_message([&replies](sockets::Message&&) { ++replies; });
          sockets::Message m;
          m.type = 1;
          m.size = DataSize::kib(1);
          s->send(m);
        });
  }
  EXPECT_EQ(platform.run(SimTime::max()), Platform::RunResult::kDrained);
  EXPECT_EQ(echoed, 3);
  EXPECT_EQ(replies, 3);
}

TEST(Platform, TraceKeepsEveryEventOfEveryShard) {
  // The trace is a complete log, not a bounded ring: a shard that records
  // more than 2^16 events keeps them all, and the merged lines hold every
  // event of every shard in (t, line) order.
  constexpr int kFirst = 70000;  // on shard 0, at t = 1 s
  constexpr int kLast = 2000;    // on shard 1, at t = 2 s
  Platform platform(topology::homogeneous_dsl(4),
                    PlatformConfig{.physical_nodes = 2,
                                   .shards = 2,
                                   .pin_workers = false});
  ASSERT_EQ(platform.shard_count(), 2u);
  ASSERT_NE(platform.shard_of_pnode(platform.pnode_of_vnode(0)),
            platform.shard_of_pnode(platform.pnode_of_vnode(3)));
  platform.enable_tracing();
  auto burst = [&platform](std::size_t vnode, int events, double at_s) {
    sim::Simulation& sim = platform.sim_of_vnode(vnode);
    sim.schedule_at(SimTime::zero() + Duration::seconds(at_s),
                    [&sim, vnode, events] {
                      for (int i = 0; i < events; ++i) {
                        P2PLAB_TRACE(sim.now(), "test", "burst",
                                     {{"vnode", vnode}, {"i", i}});
                      }
                    });
  };
  burst(0, kFirst, 1.0);
  burst(3, kLast, 2.0);
  platform.run(SimTime::zero() + Duration::sec(3));

  const std::vector<std::string> lines = platform.trace_lines();
  ASSERT_EQ(lines.size(), std::size_t{kFirst + kLast});
  EXPECT_TRUE(std::is_sorted(lines.begin(), lines.begin() + kFirst));
  const std::set<std::string> distinct(lines.begin(), lines.end());
  EXPECT_EQ(distinct.size(), lines.size());
  for (std::size_t n = 0; n < lines.size(); ++n) {
    const bool first = n < kFirst;
    ASSERT_NE(lines[n].find(first ? "\"t\":1.0" : "\"t\":2.0"),
              std::string::npos)
        << lines[n];
    ASSERT_NE(lines[n].find(first ? "\"vnode\":0," : "\"vnode\":3,"),
              std::string::npos)
        << lines[n];
  }
}

TEST(Platform, DrainRunFinishesWithMonitorAttached) {
  // The monitor is sampled at barriers and schedules nothing, so a
  // drain-style run still drains.
  char dir[] = "/tmp/p2plab_platform_drain_XXXXXX";
  ASSERT_NE(mkdtemp(dir), nullptr);
  setenv("P2PLAB_RESULTS_DIR", dir, 1);
  metrics::Registry registry;
  Platform platform(topology::homogeneous_dsl(4),
                    PlatformConfig{.physical_nodes = 2, .shards = 2});
  platform.bind_metrics(registry);
  std::optional<metrics::HealthMonitor> monitor;
  monitor.emplace("platform_drain_test", Duration::sec(1));
  platform.attach_monitor(*monitor);
  auto listener = platform.api(0).listen(7000, [](sockets::StreamSocketPtr) {});
  platform.api(1).connect(platform.vnode(0).ip(), 7000,
                          [](sockets::StreamSocketPtr s) {
                            s->send(sockets::Message{1, DataSize::kib(64),
                                                     nullptr});
                          });
  EXPECT_EQ(platform.run(SimTime::max()), Platform::RunResult::kDrained);
  EXPECT_GT(platform.now(), SimTime::zero() + Duration::sec(2));
  EXPECT_GE(monitor->samples(), 2u);  // the transfer spans several periods
  platform.detach_monitor();
  monitor.reset();  // flushes the timeline
  unsetenv("P2PLAB_RESULTS_DIR");
  // The final row, taken at detach, counts every event of the run.
  std::ifstream file(std::string(dir) + "/platform_drain_test.csv");
  std::string line;
  std::string last;
  while (std::getline(file, line)) last = line;
  std::stringstream fields(last);
  std::string field;
  for (int column = 0; column <= 2; ++column) std::getline(fields, field, ',');
  EXPECT_EQ(field, std::to_string(platform.dispatched_events())) << last;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace p2plab::core
