// Topology-aware partitioner and scaling-knob tests.
//
// The partitioner's contract (engine/partition.hpp) has two halves. The
// assignment itself must be a pure function of (topology, pnodes, shards,
// seed): deterministic, every pnode assigned exactly once, shard sizes
// balanced to within one. And the engine's contract makes any partition
// invisible to results — so any shard count must replay the same
// simulated bytes.
#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bittorrent/swarm.hpp"
#include "core/platform.hpp"
#include "engine/partition.hpp"
#include "metrics/registry.hpp"
#include "topology/topology.hpp"

namespace p2plab {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

topology::Topology two_zone(std::size_t a, std::size_t b) {
  topology::Topology topo;
  topo.add_zone("isp-a", *CidrBlock::parse("10.1.0.0/16"), a,
                topology::dsl_2m());
  topo.add_zone("isp-b", *CidrBlock::parse("10.2.0.0/16"), b,
                topology::dsl_2m());
  topo.add_latency(0, 1, Duration::ms(100));
  return topo;
}

void expect_valid_partition(const std::vector<std::size_t>& part,
                            std::size_t pnodes, std::size_t shards) {
  ASSERT_EQ(part.size(), pnodes);
  std::vector<std::size_t> sizes(shards, 0);
  for (const std::size_t s : part) {
    ASSERT_LT(s, shards);
    ++sizes[s];
  }
  // Balanced to within one pnode: the capacities are floor/ceil of P/K.
  const auto [lo, hi] = std::minmax_element(sizes.begin(), sizes.end());
  EXPECT_LE(*hi - *lo, 1u);
  EXPECT_GE(*lo, pnodes / shards);
}

TEST(Partition, EveryPnodeAssignedExactlyOnceAndBalanced) {
  const topology::Topology topo = two_zone(6, 10);
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                              std::size_t{4}}) {
    const auto part = engine::topo_partition(topo, 8, k, 42);
    expect_valid_partition(part, 8, k);
  }
}

TEST(Partition, DeterministicForFixedSpecAndSeed) {
  const topology::Topology topo = two_zone(12, 4);
  const auto a = engine::topo_partition(topo, 8, 4, 7);
  const auto b = engine::topo_partition(topo, 8, 4, 7);
  EXPECT_EQ(a, b);
  // The seed only feeds the refinement pass; whatever it produces must
  // still be a valid balanced assignment.
  expect_valid_partition(engine::topo_partition(topo, 8, 4, 8), 8, 4);
}

TEST(Partition, HomogeneousDegeneratesToStriping) {
  // On a homogeneous topology every pnode pair has equal affinity, so the
  // lowest-index greedy yields the same contiguous blocks as striping —
  // the seed layout existing scenarios (fig8) were written against.
  const topology::Topology topo = topology::homogeneous_dsl(8);
  EXPECT_EQ(engine::topo_partition(topo, 8, 4, 7),
            engine::stripe_partition(8, 4));
  EXPECT_EQ(engine::topo_partition(topo, 8, 2, 7),
            engine::stripe_partition(8, 2));
}

TEST(Partition, CoZonePnodesShareAShardWhenCapacityAllows) {
  // Two equal zones folded two vnodes per pnode: each pnode is wholly in
  // one zone, and K=2 has exactly the capacity for one zone per shard. A
  // zero edge-cut assignment exists; the greedy must find it.
  const topology::Topology topo = two_zone(4, 4);
  const auto part = engine::topo_partition(topo, 4, 2, 1);
  expect_valid_partition(part, 4, 2);
  // pnode p covers vnodes [2p, 2p+2): pnodes 0-1 are zone a, 2-3 zone b.
  EXPECT_EQ(part[0], part[1]);
  EXPECT_EQ(part[2], part[3]);
  EXPECT_NE(part[0], part[2]);
}

TEST(Partition, StripeIsContiguousBlocks) {
  const auto part = engine::stripe_partition(10, 4);
  expect_valid_partition(part, 10, 4);
  EXPECT_TRUE(std::is_sorted(part.begin(), part.end()));
}

// -- partition invisibility -----------------------------------------------

struct RunOutput {
  std::vector<double> completion_sec;
  std::vector<std::string> trace;
  std::uint64_t dispatched = 0;
};

RunOutput run_fig8(std::size_t shards) {
  core::PlatformConfig pc;
  pc.physical_nodes = 8;
  pc.seed = 7;
  pc.shards = shards;
  if (shards == 1) pc.pin_workers = false;
  bt::SwarmConfig config;
  config.file_size = DataSize::mib(1);
  config.seeders = 2;
  config.clients = 8;
  config.start_interval = Duration::sec(2);
  config.max_duration = Duration::sec(4000);
  core::Platform platform(topology::homogeneous_dsl(bt::swarm_vnodes(config)),
                          pc);
  platform.enable_tracing(1 << 18);
  bt::Swarm swarm(platform, config);
  swarm.run();
  EXPECT_TRUE(swarm.all_complete());
  EXPECT_EQ(platform.trace_dropped(), 0u);
  RunOutput out;
  out.completion_sec = swarm.completion_times_sec();
  out.trace = platform.trace_lines();
  out.dispatched = platform.dispatched_events();
  return out;
}

void expect_same_run(const RunOutput& golden, const RunOutput& run,
                     const std::string& what) {
  EXPECT_EQ(golden.completion_sec, run.completion_sec)
      << "completion times diverged: " << what;
  EXPECT_EQ(golden.dispatched, run.dispatched)
      << "event counts diverged: " << what;
  ASSERT_EQ(golden.trace.size(), run.trace.size())
      << "trace lengths diverged: " << what;
  for (std::size_t i = 0; i < golden.trace.size(); ++i) {
    ASSERT_EQ(golden.trace[i], run.trace[i])
        << "first trace divergence: " << what << ", line " << i;
  }
}

TEST(PartitionDeterminism, TopoAndStripeReplayTheSameBytes) {
  // The determinism suite re-run under the topology-aware partition: K = 2
  // and 4 replay the K=1 run bit for bit. This used to run a stripe pass as
  // well, but on this homogeneous topology topo_partition() returns the
  // stripe blocks (Partition.HomogeneousDegeneratesToStriping), so that
  // pass ran the same partition twice; Platform no longer offers stripe.
  const RunOutput golden = run_fig8(1);
  ASSERT_FALSE(golden.trace.empty());
  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    // run_fig8's 11 vnodes (tracker, 2 seeders, 8 clients) on 8 pnodes.
    EXPECT_EQ(engine::topo_partition(topology::homogeneous_dsl(11), 8, k, 7),
              engine::stripe_partition(8, k));
    expect_same_run(golden, run_fig8(k),
                    "topo K=" + std::to_string(k));
  }
}

}  // namespace
}  // namespace p2plab
