// Parallel-engine determinism and lifecycle tests.
//
// The engine's contract (engine/engine.hpp) is that the shard layout is
// invisible: a K-shard run replays the 1-shard engine run bit for bit. The
// golden-trace test drives the paper's Figure 8 scenario (BitTorrent swarm
// on folded physical nodes; client count scaled down for CI, overridable
// via P2PLAB_DETERMINISM_CLIENTS up to the full 160) under K = 1, 2, 4 and
// requires byte-identical trace JSONL, identical completion times and an
// identical dispatched-event count. A two-zone swarm whose shard blocks
// cut through a zone holds to the same bar.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bittorrent/swarm.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metrics/health.hpp"
#include "metrics/registry.hpp"

namespace p2plab {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

SimTime at_sec(double s) { return SimTime::zero() + Duration::seconds(s); }

std::size_t scenario_clients() {
  if (const char* env = std::getenv("P2PLAB_DETERMINISM_CLIENTS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 10;  // CI default; 160 reproduces Figure 8 at full scale
}

bt::SwarmConfig fig8_swarm(std::size_t clients) {
  bt::SwarmConfig config;
  config.file_size = DataSize::mib(1);
  config.seeders = 2;
  config.clients = clients;
  config.start_interval = Duration::sec(2);
  config.verify_hashes = true;
  config.max_duration = Duration::sec(4000);
  return config;
}

struct RunOutput {
  std::vector<double> completion_sec;
  std::vector<std::string> trace;
  std::uint64_t dispatched = 0;
  double merged_dispatched = 0;  // via the master registry (fold_shards path)
};

/// One traced swarm run on `topo`, with pnodes, seed and transport from
/// `pc`; only the shard count varies between the runs a test compares.
RunOutput run_swarm(const topology::Topology& topo, core::PlatformConfig pc,
                    std::size_t shards, const bt::SwarmConfig& config,
                    bool profile = false) {
  pc.shards = shards;
  if (shards == 1) pc.pin_workers = false;
  core::Platform platform(topo, pc);
  platform.enable_tracing(1 << 18);
  if (profile) platform.enable_profiling();
  metrics::Registry registry;
  bt::Swarm swarm(platform, config);
  swarm.bind_metrics(registry);
  swarm.run();
  EXPECT_TRUE(swarm.all_complete()) << shards << " shard(s)";
  EXPECT_EQ(platform.trace_dropped(), 0u)
      << "ring wrapped: the byte-identity guarantee needs a larger capacity";
  if (profile) {
    // Guard against vacuous identity: the profiled run must have profiled.
    std::uint64_t recorded = 0;
    for (std::size_t s = 0; s < platform.profiler().shard_count(); ++s) {
      recorded += platform.profiler().shard_ring(s).total();
    }
    EXPECT_GT(recorded, 0u) << shards << " shard(s)";
  }
  RunOutput out;
  out.completion_sec = swarm.completion_times_sec();
  out.trace = platform.trace_lines();
  out.dispatched = platform.dispatched_events();
  out.merged_dispatched = registry.value("sim.events.dispatched");
  return out;
}

RunOutput run_fig8(std::size_t shards, std::size_t clients,
                   bool profile = false, bool tcp = false) {
  core::PlatformConfig pc;
  pc.physical_nodes = 8;
  pc.seed = 7;
  if (tcp) pc.stream.transport = sockets::TransportModel::kTcp;
  const bt::SwarmConfig config = fig8_swarm(clients);
  return run_swarm(topology::homogeneous_dsl(bt::swarm_vnodes(config)), pc,
                   shards, config, profile);
}

void expect_same_run(const RunOutput& golden, const RunOutput& run,
                     const std::string& what) {
  EXPECT_EQ(golden.completion_sec, run.completion_sec)
      << "completion times diverged " << what;
  EXPECT_EQ(golden.dispatched, run.dispatched)
      << "event counts diverged " << what;
  ASSERT_EQ(golden.trace.size(), run.trace.size())
      << "trace lengths diverged " << what;
  for (std::size_t i = 0; i < golden.trace.size(); ++i) {
    ASSERT_EQ(golden.trace[i], run.trace[i])
        << "first trace divergence " << what << ", line " << i;
  }
}

TEST(EngineDeterminism, GoldenTraceIsShardCountInvariant) {
  const std::size_t clients = scenario_clients();
  const RunOutput golden = run_fig8(1, clients);
  ASSERT_FALSE(golden.trace.empty());
  ASSERT_EQ(golden.completion_sec.size(), clients);

  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    expect_same_run(golden, run_fig8(k, clients),
                    "at K=" + std::to_string(k));
  }
}

TEST(EngineDeterminism, ZoneCutByShardBlocksIsShardCountInvariant) {
  // Two 6-vnode zones folded two vnodes per pnode: 6 pnodes, zone a on
  // pnodes 0-2 and zone b on 3-5. The K=3 blocks {0,1} {2,3} {4,5} split
  // both zones, and pnode 2's zone-a vnodes share a shard with zone b.
  topology::Topology topo;
  topo.add_zone("isp-a", *CidrBlock::parse("10.1.0.0/16"), 6,
                topology::dsl_2m());
  topo.add_zone("isp-b", *CidrBlock::parse("10.2.0.0/16"), 6,
                topology::dsl_2m());
  topo.add_latency(0, 1, Duration::ms(100));
  const bt::SwarmConfig config = fig8_swarm(9);
  ASSERT_EQ(bt::swarm_vnodes(config), topo.total_nodes());
  core::PlatformConfig pc;
  pc.physical_nodes = 6;
  pc.seed = 7;
  {
    pc.shards = 3;
    const core::Platform platform(topo, pc);
    ASSERT_EQ(platform.folding_ratio(), 2u);
    EXPECT_NE(platform.shard_of_pnode(platform.pnode_of_vnode(0)),
              platform.shard_of_pnode(platform.pnode_of_vnode(5)));
    EXPECT_EQ(platform.shard_of_pnode(platform.pnode_of_vnode(5)),
              platform.shard_of_pnode(platform.pnode_of_vnode(6)));
  }
  const RunOutput golden = run_swarm(topo, pc, 1, config);
  ASSERT_FALSE(golden.trace.empty());
  ASSERT_EQ(golden.completion_sec.size(), config.clients);
  expect_same_run(golden, run_swarm(topo, pc, 3, config), "at K=3");
}

TEST(EngineDeterminism, TcpTransportIsShardCountInvariant) {
  // The congestion model keeps per-connection state (cwnd, dup-ack counts,
  // recovery windows) whose updates are driven by ack arrival order — the
  // exact thing the shard partition must not perturb. Same golden-trace
  // bar as the flow model: K = 2, 4 replay K = 1 bit for bit.
  const std::size_t clients = scenario_clients();
  const RunOutput golden =
      run_fig8(1, clients, /*profile=*/false, /*tcp=*/true);
  ASSERT_FALSE(golden.trace.empty());
  ASSERT_EQ(golden.completion_sec.size(), clients);

  for (const std::size_t k : {std::size_t{2}, std::size_t{4}}) {
    expect_same_run(golden,
                    run_fig8(k, clients, /*profile=*/false, /*tcp=*/true),
                    "at K=" + std::to_string(k) + " under tcp");
  }
}

TEST(EngineDeterminism, ProfilingIsInvisibleToSimulatedState) {
  // The profiler's whole contract: wall-clock observation only. A profiled
  // run at any K must replay the unprofiled K=1 run bit for bit — trace
  // bytes, completion times and event count — while still having actually
  // profiled (samples recorded).
  const std::size_t clients = scenario_clients();
  const RunOutput golden = run_fig8(1, clients, /*profile=*/false);
  ASSERT_FALSE(golden.trace.empty());

  for (const std::size_t k : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    expect_same_run(golden, run_fig8(k, clients, /*profile=*/true),
                    "with profiling at K=" + std::to_string(k));
  }
}

TEST(EngineDeterminism, MergedRegistryMatchesAggregateCounters) {
  const RunOutput run = run_fig8(4, 6);
  EXPECT_GT(run.dispatched, 0u);
  EXPECT_DOUBLE_EQ(run.merged_dispatched,
                   static_cast<double>(run.dispatched));
}

/// One monitored fig8-shaped run: the health timeline's data rows, split
/// into fields, plus the final merged registry values of its layer
/// columns.
struct Timeline {
  std::vector<std::vector<std::string>> rows;
  std::vector<double> final_tracked;
};

Timeline monitored_run(std::size_t shards, const std::string& dir) {
  setenv("P2PLAB_RESULTS_DIR", dir.c_str(), 1);
  Timeline out;
  {
    metrics::Registry registry;  // outlives the platform
    core::PlatformConfig pc;
    pc.physical_nodes = 4;
    pc.seed = 7;
    pc.shards = shards;
    if (shards == 1) pc.pin_workers = false;
    const bt::SwarmConfig config = fig8_swarm(6);
    core::Platform platform(
        topology::homogeneous_dsl(bt::swarm_vnodes(config)), pc);
    bt::Swarm swarm(platform, config);
    swarm.bind_metrics(registry);
    metrics::HealthMonitor monitor("timeline", Duration::sec(20));
    platform.attach_monitor(monitor);
    swarm.run();
    platform.detach_monitor();
    EXPECT_TRUE(swarm.all_complete()) << shards << " shard(s)";
    for (const char* name : metrics::HealthMonitor::kTrackedColumns) {
      out.final_tracked.push_back(registry.value(name));
    }
  }  // the monitor's CsvWriter flushes here
  unsetenv("P2PLAB_RESULTS_DIR");
  std::ifstream file(dir + "/timeline.csv");
  std::string line;
  std::getline(file, line);  // header
  while (std::getline(file, line)) {
    std::vector<std::string> fields;
    std::stringstream ss(line);
    std::string field;
    while (std::getline(ss, field, ',')) fields.push_back(field);
    out.rows.push_back(fields);
  }
  return out;
}

TEST(EngineMonitor, TimelineIsShardCountInvariant) {
  // Columns: sim_s, wall_s, events, queue_depth, events_per_wall_s,
  // sim_s_per_wall_s, then the four layer counters. All but the three
  // wall-clock ones are fixed by the simulation alone.
  char dir[] = "/tmp/p2plab_timeline_XXXXXX";
  ASSERT_NE(mkdtemp(dir), nullptr);
  const Timeline one = monitored_run(1, dir);
  const Timeline two = monitored_run(2, dir);
  ASSERT_GT(one.rows.size(), 3u);
  ASSERT_EQ(one.rows.size(), two.rows.size());
  for (std::size_t i = 0; i < one.rows.size(); ++i) {
    ASSERT_EQ(one.rows[i].size(), 10u);
    ASSERT_EQ(two.rows[i].size(), 10u);
    for (const std::size_t col : {0u, 2u, 3u, 6u, 7u, 8u, 9u}) {
      EXPECT_EQ(one.rows[i][col], two.rows[i][col])
          << "row " << i << " column " << col;
    }
  }
  // The shard registries are folded before every sample: the final row's
  // layer columns are the final merged registry, and packets did flow.
  for (const Timeline* t : {&one, &two}) {
    for (std::size_t c = 0; c < t->final_tracked.size(); ++c) {
      EXPECT_EQ(t->rows.back()[6 + c], std::to_string(t->final_tracked[c]))
          << "column " << 6 + c;
    }
    EXPECT_GT(t->final_tracked[1], 0.0);
  }
  std::filesystem::remove_all(dir);
}

TEST(EnginePlatform, DeadlineStopsOnTimeAndResumes) {
  core::PlatformConfig pc;
  pc.physical_nodes = 4;
  pc.shards = 2;
  const bt::SwarmConfig config = fig8_swarm(4);
  core::Platform platform(topology::homogeneous_dsl(bt::swarm_vnodes(config)),
                          pc);
  bt::Swarm swarm(platform, config);

  EXPECT_EQ(platform.run(at_sec(10)), core::Platform::RunResult::kDeadline);
  EXPECT_EQ(platform.now(), at_sec(10));
  EXPECT_FALSE(swarm.all_complete());

  // The engine resumes exactly where it stopped: finishing from here must
  // behave like one uninterrupted run.
  swarm.run();
  EXPECT_TRUE(swarm.all_complete());
  EXPECT_GT(platform.now(), at_sec(10));
}

TEST(EnginePlatform, ShardGaugesFoldAsLevels) {
  // Every run() folds the shard registries into the master. Gauges are
  // levels, so after any number of folds the master holds the sum of the
  // shards' current values — not the sum of every value ever folded.
  metrics::Registry registry;  // outlives the platform
  core::PlatformConfig pc;
  pc.physical_nodes = 4;
  pc.shards = 2;
  const bt::SwarmConfig config = fig8_swarm(6);
  core::Platform platform(topology::homogeneous_dsl(bt::swarm_vnodes(config)),
                          pc);
  platform.bind_metrics(registry);
  bt::Swarm swarm(platform, config);
  std::vector<sim::Simulation*> sims;
  std::vector<metrics::Registry*> shard_regs;
  for (std::size_t i = 0; i < platform.vnode_count(); ++i) {
    sim::Simulation* sim = &platform.sim_of_vnode(i);
    if (std::find(sims.begin(), sims.end(), sim) != sims.end()) continue;
    sims.push_back(sim);
    shard_regs.push_back(&platform.registry_of_vnode(i));
  }
  ASSERT_EQ(sims.size(), 2u);

  for (int fold = 1; fold <= 4; ++fold) {
    ASSERT_EQ(platform.run(at_sec(5.0 * fold)),
              core::Platform::RunResult::kDeadline);
    double pending = 0;
    for (const sim::Simulation* sim : sims) {
      pending += static_cast<double>(sim->pending_events());
    }
    ASSERT_GT(pending, 0.0);
    EXPECT_DOUBLE_EQ(registry.value("sim.queue.depth"), pending)
        << "fold " << fold;
    for (const char* gauge : {"sim.slab.capacity", "net.pool.size"}) {
      double summed = 0;
      for (const metrics::Registry* reg : shard_regs) {
        summed += reg->value(gauge);
      }
      EXPECT_GT(summed, 0.0) << gauge;
      EXPECT_DOUBLE_EQ(registry.value(gauge), summed)
          << gauge << " at fold " << fold;
    }
  }
  // Counters stay exact across the same folds.
  EXPECT_DOUBLE_EQ(registry.value("sim.events.dispatched"),
                   static_cast<double>(platform.dispatched_events()));
}

TEST(EnginePlatform, PredicateStopFiresOnCheckGrid) {
  core::PlatformConfig pc;
  pc.physical_nodes = 2;
  pc.shards = 2;
  const bt::SwarmConfig config = fig8_swarm(2);
  core::Platform platform(topology::homogeneous_dsl(bt::swarm_vnodes(config)),
                          pc);
  bt::Swarm swarm(platform, config);
  const auto result = platform.run(
      at_sec(3600), [&platform] { return platform.now() >= at_sec(20); },
      Duration::sec(5));
  EXPECT_EQ(result, core::Platform::RunResult::kPredicate);
  // Stopped at a multiple of the check interval, at or after the trigger.
  EXPECT_GE(platform.now(), at_sec(20));
  EXPECT_LT(platform.now(), at_sec(26));
}

TEST(EngineChurn, CrashAndRejoinAcrossShards) {
  // A client on the last shard crashes and rejoins while the tracker lives
  // on the first: the teardown (socket aborts, address withdrawal) happens
  // on the victim's shard, and its peers discover the loss over the
  // cross-shard fabric.
  const bt::SwarmConfig config = fig8_swarm(6);  // 9 vnodes
  core::PlatformConfig pc;
  pc.physical_nodes = 3;
  pc.shards = 3;
  core::Platform platform(topology::homogeneous_dsl(bt::swarm_vnodes(config)),
                          pc);
  bt::Swarm swarm(platform, config);
  const std::size_t first_client_vnode = 1 + config.seeders;
  const std::size_t victim = config.clients - 1;  // last pnode, last shard
  ASSERT_NE(platform.shard_of_pnode(
                platform.pnode_of_vnode(first_client_vnode + victim)),
            platform.shard_of_pnode(0));

  fault::FaultPlan plan;
  plan.crash_and_rejoin(first_client_vnode + victim, at_sec(25),
                        Duration::sec(40));
  fault::FaultInjector injector(platform, plan);
  injector.set_node_hooks(fault::NodeHooks{
      .on_crash = [&](std::size_t v) {
        swarm.client(v - first_client_vnode).crash();
      },
      .on_leave = nullptr,
      .on_rejoin = [&](std::size_t v) {
        swarm.client(v - first_client_vnode).start();
      }});
  injector.arm();
  swarm.run();
  EXPECT_TRUE(swarm.all_complete());
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
}

}  // namespace
}  // namespace p2plab
