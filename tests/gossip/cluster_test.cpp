// gossip::Cluster integration tests on the real platform: failure
// detection end to end, refutation on rejoin, and the shard-count
// invariance contract — the same churn schedule at K = 1, 2 and 4 shards
// must produce a byte-identical event log.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "gossip/cluster.hpp"
#include "metrics/registry.hpp"
#include "topology/topology.hpp"

namespace p2plab::gossip {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

SimTime at_sec(double s) { return SimTime::zero() + Duration::seconds(s); }

Config small_cluster(std::size_t nodes) {
  Config config;
  config.nodes = nodes;
  config.suspect_timeout = Duration::sec(4);
  return config;
}

struct RunOutput {
  std::vector<std::string> event_log;
  std::vector<ConfirmRecord> confirms;
  std::uint64_t refutations = 0;
};

/// One full churn run: crash-and-rejoin, permanent crash, graceful leave.
RunOutput run_churn(std::size_t shards, std::size_t nodes = 16) {
  core::PlatformConfig pc;
  pc.physical_nodes = 4;
  pc.seed = 11;
  pc.shards = shards;
  if (shards == 1) pc.pin_workers = false;
  const Config config = small_cluster(nodes);
  core::Platform platform(topology::homogeneous_dsl(nodes), pc);
  metrics::Registry registry;
  platform.bind_metrics(registry);

  Cluster cluster(platform, config);
  cluster.bind_metrics();

  fault::FaultPlan plan;
  plan.crash_and_rejoin(3, at_sec(20), Duration::sec(30));
  plan.crash(5, at_sec(25));
  plan.leave(7, at_sec(40));
  plan.sort();
  fault::FaultInjector injector(platform, std::move(plan));
  injector.set_node_hooks(fault::NodeHooks{
      .on_crash = [&](std::size_t v) { cluster.node(v).crash(); },
      .on_leave = [&](std::size_t v) { cluster.node(v).stop(); },
      .on_rejoin = [&](std::size_t v) { cluster.node(v).restart(); }});
  injector.arm();

  cluster.start();
  platform.run(at_sec(120));
  EXPECT_EQ(injector.stats().unrecovered(), 0u) << shards << " shard(s)";

  RunOutput out;
  out.event_log = cluster.event_log();
  out.confirms = cluster.confirm_log();
  out.refutations =
      static_cast<std::uint64_t>(registry.value("gossip.refutations"));
  return out;
}

TEST(GossipCluster, EveryMemberJoins) {
  core::PlatformConfig pc;
  pc.physical_nodes = 2;
  pc.seed = 3;
  pc.pin_workers = false;
  const Config config = small_cluster(8);
  core::Platform platform(topology::homogeneous_dsl(8), pc);
  metrics::Registry registry;
  platform.bind_metrics(registry);
  Cluster cluster(platform, config);
  cluster.bind_metrics();
  cluster.start();
  platform.run(at_sec(30));
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.node(i).joined()) << "node " << i;
  }
  // A healthy cluster confirms nobody.
  EXPECT_TRUE(cluster.confirm_log().empty());
  EXPECT_GT(registry.value("gossip.pings"), 0.0);
}

TEST(GossipCluster, CrashIsDetectedClusterWide) {
  core::PlatformConfig pc;
  pc.physical_nodes = 2;
  pc.seed = 5;
  pc.pin_workers = false;
  const Config config = small_cluster(8);
  core::Platform platform(topology::homogeneous_dsl(8), pc);
  metrics::Registry registry;
  platform.bind_metrics(registry);
  Cluster cluster(platform, config);
  cluster.bind_metrics();

  fault::FaultPlan plan;
  plan.crash(4, at_sec(20));
  fault::FaultInjector injector(platform, std::move(plan));
  injector.set_node_hooks(fault::NodeHooks{
      .on_crash = [&](std::size_t v) { cluster.node(v).crash(); },
      .on_leave = [&](std::size_t v) { cluster.node(v).stop(); },
      .on_rejoin = [&](std::size_t v) { cluster.node(v).restart(); }});
  injector.arm();
  cluster.start();
  platform.run(at_sec(90));

  const std::vector<ConfirmRecord> confirms = cluster.confirm_log();
  ASSERT_FALSE(confirms.empty());
  for (const ConfirmRecord& record : confirms) {
    EXPECT_EQ(record.victim, 4u);
    EXPECT_GT(record.at, at_sec(20));
    // Worst case: a full probe-ring traversal plus the suspicion age.
    EXPECT_LT(record.at, at_sec(20) + kProtocolPeriod * 8 +
                             config.suspect_timeout + kProtocolPeriod * 2);
  }
  // Eventually every live member confirms the victim.
  std::size_t observers = 0;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i == 4) continue;
    observers +=
        cluster.node(i).table().entry(4).state == MemberState::kConfirmed;
  }
  EXPECT_EQ(observers, cluster.size() - 1);
}

TEST(GossipCluster, RejoinRefutesSuspicionAndHeals) {
  core::PlatformConfig pc;
  pc.physical_nodes = 2;
  pc.seed = 9;
  pc.pin_workers = false;
  const Config config = small_cluster(8);
  core::Platform platform(topology::homogeneous_dsl(8), pc);
  metrics::Registry registry;
  platform.bind_metrics(registry);
  Cluster cluster(platform, config);
  cluster.bind_metrics();

  fault::FaultPlan plan;
  plan.crash_and_rejoin(4, at_sec(20), Duration::sec(20));
  fault::FaultInjector injector(platform, std::move(plan));
  injector.set_node_hooks(fault::NodeHooks{
      .on_crash = [&](std::size_t v) { cluster.node(v).crash(); },
      .on_leave = [&](std::size_t v) { cluster.node(v).stop(); },
      .on_rejoin = [&](std::size_t v) { cluster.node(v).restart(); }});
  injector.arm();
  cluster.start();
  platform.run(at_sec(150));

  // The victim came back with a bumped incarnation...
  EXPECT_TRUE(cluster.node(4).joined());
  EXPECT_GE(cluster.node(4).table().incarnation(), 1u);
  // ...and the cluster healed: everyone sees it alive again.
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    if (i == 4) continue;
    EXPECT_EQ(cluster.node(i).table().entry(4).state, MemberState::kAlive)
        << "node " << i << " still thinks 4 is dead";
  }
}

TEST(GossipCluster, FaultsBeforeTheStaggeredStartOwnTheLifecycle) {
  // Members start at i x 200 ms, so node 6 starts at 1.2 s and node 7 at
  // 1.4 s. Node 6 crashes before its start and rejoins after it; node 7
  // crashes and rejoins before its start. Either way the rejoin binds the
  // member's port, and the start event that fires in between or after
  // must not bind it a second time.
  core::PlatformConfig pc;
  pc.physical_nodes = 2;
  pc.seed = 13;
  pc.pin_workers = false;
  const Config config = small_cluster(8);
  core::Platform platform(topology::homogeneous_dsl(8), pc);
  metrics::Registry registry;
  platform.bind_metrics(registry);
  Cluster cluster(platform, config);
  cluster.bind_metrics();

  fault::FaultPlan plan;
  plan.crash_and_rejoin(6, at_sec(0.5), Duration::sec(5));
  plan.crash_and_rejoin(7, at_sec(0.5), Duration::millis(400));
  plan.sort();
  fault::FaultInjector injector(platform, std::move(plan));
  injector.set_node_hooks(fault::NodeHooks{
      .on_crash = [&](std::size_t v) { cluster.node(v).crash(); },
      .on_leave = [&](std::size_t v) { cluster.node(v).stop(); },
      .on_rejoin = [&](std::size_t v) { cluster.node(v).restart(); }});
  injector.arm();
  cluster.start();
  platform.run(at_sec(60));

  EXPECT_EQ(injector.stats().unrecovered(), 0u);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    EXPECT_TRUE(cluster.node(i).joined()) << "node " << i;
    for (const std::uint32_t victim : {6u, 7u}) {
      EXPECT_EQ(cluster.node(i).table().entry(victim).state,
                MemberState::kAlive)
          << "node " << i << " on " << victim;
    }
  }
}

TEST(GossipCluster, GossipIsShardCountInvariant) {
  const RunOutput golden = run_churn(1);
  ASSERT_FALSE(golden.event_log.empty());
  // The run must exercise the interesting paths, or identity is vacuous.
  EXPECT_FALSE(golden.confirms.empty());
  for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
    const RunOutput sharded = run_churn(shards);
    EXPECT_EQ(golden.event_log, sharded.event_log)
        << "event log diverged at K=" << shards;
    EXPECT_EQ(golden.refutations, sharded.refutations)
        << "refutation count diverged at K=" << shards;
  }
}

}  // namespace
}  // namespace p2plab::gossip
