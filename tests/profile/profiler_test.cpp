// BSP profiler tests: ring overflow semantics, rollup math, Perfetto
// trace-event validity (line-parsed: the sink promises one event per
// line), registry folding, and the end-to-end recording paths — engine
// workers at K=2 and the single worker at K=1.
#include "profile/profiler.hpp"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bittorrent/swarm.hpp"
#include "core/platform.hpp"
#include "metrics/recorder.hpp"
#include "metrics/registry.hpp"
#include "metrics/trace.hpp"
#include "topology/topology.hpp"

namespace p2plab::profile {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

PhaseSample sample_at(std::uint64_t start_ns, std::uint64_t dur_ns,
                      Phase phase, std::uint64_t events = 0,
                      std::uint64_t queue = 0) {
  PhaseSample s;
  s.start_ns = start_ns;
  s.dur_ns = dur_ns;
  s.phase = phase;
  s.events = events;
  s.queue_depth = queue;
  return s;
}

TEST(SampleRing, OverflowDropsOldestWithoutBlocking) {
  SampleRing ring(4);
  for (std::uint64_t i = 0; i < 7; ++i) {
    ring.push(sample_at(i, 1, Phase::kExecute, /*events=*/i));
  }
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_EQ(ring.total(), 7u);
  EXPECT_EQ(ring.dropped(), 3u);
  // Survivors are the newest four, oldest first.
  const std::vector<PhaseSample> kept = ring.samples();
  ASSERT_EQ(kept.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(kept[i].start_ns, i + 3);
  }
}

TEST(SampleRing, NoDropsBelowCapacity) {
  SampleRing ring(8);
  ring.push(sample_at(10, 5, Phase::kBarrier));
  ring.push(sample_at(20, 5, Phase::kExecute));
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.dropped(), 0u);
  const std::vector<PhaseSample> kept = ring.samples();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].start_ns, 10u);
  EXPECT_EQ(kept[1].phase, Phase::kExecute);
}

TEST(ProfilerRollup, SharesAndImbalanceFromHandBuiltSamples) {
  // Shard 0: 60 ms execute + 40 ms wait, 300 events.
  // Shard 1: 80 ms execute + 20 ms wait, 100 events.
  // Coordinator: 10 ms merge. Span = 0..100 ms.
  Profiler prof(2, /*ring_capacity=*/16);
  prof.shard_ring(0).push(
      sample_at(0, 60'000'000, Phase::kExecute, 300, /*queue=*/7));
  prof.shard_ring(0).push(
      sample_at(60'000'000, 40'000'000, Phase::kBarrier));
  prof.shard_ring(1).push(sample_at(0, 80'000'000, Phase::kExecute, 100));
  prof.shard_ring(1).push(
      sample_at(80'000'000, 20'000'000, Phase::kBarrier));
  prof.coordinator_ring().push(
      sample_at(40'000'000, 10'000'000, Phase::kMerge));

  const Rollup roll = prof.rollup();
  ASSERT_EQ(roll.shards.size(), 2u);
  EXPECT_NEAR(roll.span_s, 0.1, 1e-9);
  EXPECT_NEAR(roll.shards[0].utilization_pct, 60.0, 1e-6);
  EXPECT_NEAR(roll.shards[1].utilization_pct, 80.0, 1e-6);
  EXPECT_EQ(roll.shards[0].events, 300u);
  EXPECT_EQ(roll.shards[0].max_queue_depth, 7u);
  // Σ wait / Σ (execute + wait + compact) = 60 ms / 200 ms.
  EXPECT_NEAR(roll.barrier_wait_share, 0.3, 1e-9);
  EXPECT_NEAR(roll.merge_share, 0.1, 1e-9);
  // max/mean events = 300 / 200.
  EXPECT_NEAR(roll.imbalance_ratio, 1.5, 1e-9);
  EXPECT_EQ(roll.ring_dropped, 0u);
}

TEST(ProfilerRollup, EmptyProfilerIsAllZerosWithUnitImbalance) {
  Profiler prof(3);
  const Rollup roll = prof.rollup();
  EXPECT_EQ(roll.span_s, 0.0);
  EXPECT_EQ(roll.barrier_wait_share, 0.0);
  EXPECT_EQ(roll.imbalance_ratio, 1.0);  // no events: balanced, not 0/0
}

TEST(ProfilerRollup, RingDroppedSumsAllRings) {
  Profiler prof(1, /*ring_capacity=*/2);
  for (int i = 0; i < 5; ++i) {
    prof.shard_ring(0).push(sample_at(static_cast<std::uint64_t>(i), 1,
                                      Phase::kExecute));
  }
  EXPECT_EQ(prof.rollup().ring_dropped, 3u);
}

TEST(ProfilerRollup, RollupIsRingCapacityInvariant) {
  // The rollup describes the whole run, not the samples a small ring still
  // holds: a 16-slot ring that dropped nearly everything must roll up
  // exactly like a ring that kept it all.
  Profiler small(2, /*ring_capacity=*/16);
  Profiler large(2, /*ring_capacity=*/1 << 20);
  constexpr Phase kPhases[] = {Phase::kBarrier, Phase::kMerge,
                               Phase::kExecute, Phase::kMerge,
                               Phase::kCompact};
  std::uint64_t t = 0;
  for (std::uint64_t window = 0; window < 200; ++window) {
    for (std::size_t s = 0; s < 2; ++s) {
      std::uint64_t start = t;
      for (const Phase phase : kPhases) {
        PhaseSample sample = sample_at(
            start, 1000 + 37 * window + 11 * s, phase,
            /*events=*/(window * 7 + s * 3) % 50,
            /*queue=*/(window * 13 + s) % 97);
        sample.window = window;
        small.shard_ring(s).push(sample);
        large.shard_ring(s).push(sample);
        start += sample.dur_ns;
      }
    }
    const PhaseSample merge = sample_at(t, 250 + window, Phase::kMerge);
    small.coordinator_ring().push(merge);
    large.coordinator_ring().push(merge);
    t += 10'000;
  }

  const Rollup a = small.rollup();
  const Rollup b = large.rollup();
  EXPECT_GT(a.ring_dropped, 0u);
  EXPECT_EQ(b.ring_dropped, 0u);
  EXPECT_EQ(a.span_s, b.span_s);
  EXPECT_EQ(a.merge_s, b.merge_s);
  EXPECT_EQ(a.barrier_wait_share, b.barrier_wait_share);
  EXPECT_EQ(a.merge_share, b.merge_share);
  EXPECT_EQ(a.imbalance_ratio, b.imbalance_ratio);
  ASSERT_EQ(a.shards.size(), b.shards.size());
  for (std::size_t s = 0; s < a.shards.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_EQ(a.shards[s].execute_s, b.shards[s].execute_s);
    EXPECT_EQ(a.shards[s].barrier_wait_s, b.shards[s].barrier_wait_s);
    EXPECT_EQ(a.shards[s].merge_s, b.shards[s].merge_s);
    EXPECT_EQ(a.shards[s].compact_s, b.shards[s].compact_s);
    EXPECT_EQ(a.shards[s].utilization_pct, b.shards[s].utilization_pct);
    EXPECT_EQ(a.shards[s].events, b.shards[s].events);
    EXPECT_EQ(a.shards[s].max_queue_depth, b.shards[s].max_queue_depth);
    EXPECT_EQ(a.shards[s].stats.user_s, b.shards[s].stats.user_s);
    EXPECT_EQ(a.shards[s].stats.sys_s, b.shards[s].stats.sys_s);
    EXPECT_EQ(a.shards[s].stats.pinned_cpu, b.shards[s].stats.pinned_cpu);
  }
}

TEST(ProfilerRegistry, FoldInstallsProfileGaugesIdempotently) {
  Profiler prof(2, 16);
  prof.shard_ring(0).push(sample_at(0, 50'000'000, Phase::kExecute, 10));
  metrics::Registry reg;
  prof.fold_into(reg);
  prof.fold_into(reg);  // second fold must not double anything
  EXPECT_NEAR(reg.value("profile.shard0.utilization_pct"), 100.0, 1e-6);
  EXPECT_EQ(reg.value("profile.shard1.utilization_pct"), 0.0);
  EXPECT_EQ(reg.value("profile.barrier_wait.share"), 0.0);
  EXPECT_EQ(reg.value("profile.merge.share"), 0.0);
  EXPECT_EQ(reg.value("profile.imbalance.ratio"), 10.0 / 5.0);
  EXPECT_EQ(reg.value("profile.ring.dropped"), 0.0);
}

// --- Perfetto sink ---------------------------------------------------------

// Minimal field scraping for the line-oriented trace format; the sink
// promises one JSON event object per line.
bool field_u64(const std::string& line, const std::string& key,
               std::uint64_t* out) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtoull(line.c_str() + pos + needle.size(), nullptr, 10);
  return true;
}

bool field_f64(const std::string& line, const std::string& key,
               double* out) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t pos = line.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(line.c_str() + pos + needle.size(), nullptr);
  return true;
}

TEST(ProfilerPerfetto, TimelineIsWellFormedPerTrack) {
  Profiler prof(2, 64);
  prof.shard_ring(0).push(sample_at(1000, 500, Phase::kExecute, 5, 2));
  prof.shard_ring(0).push(sample_at(1500, 250, Phase::kBarrier));
  prof.shard_ring(1).push(sample_at(900, 800, Phase::kExecute, 9));
  prof.coordinator_ring().push(sample_at(1750, 100, Phase::kMerge));

  const std::string json = prof.perfetto_json();
  EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\": ["), std::string::npos);

  std::istringstream lines(json);
  std::string line;
  std::set<std::uint64_t> meta_tids;
  std::map<std::uint64_t, double> last_ts;  // per tid: ts monotonic
  std::size_t x_events = 0;
  while (std::getline(lines, line)) {
    std::uint64_t tid = 0;
    if (line.find("\"ph\": \"M\"") != std::string::npos &&
        line.find("thread_name") != std::string::npos) {
      ASSERT_TRUE(field_u64(line, "tid", &tid)) << line;
      EXPECT_TRUE(meta_tids.insert(tid).second)
          << "duplicate thread_name metadata for tid " << tid;
      continue;
    }
    if (line.find("\"ph\": \"X\"") == std::string::npos) continue;
    ++x_events;
    std::uint64_t pid = 0;
    double ts = -1.0;
    double dur = -1.0;
    ASSERT_TRUE(field_u64(line, "pid", &pid)) << line;
    ASSERT_TRUE(field_u64(line, "tid", &tid)) << line;
    ASSERT_TRUE(field_f64(line, "ts", &ts)) << line;
    ASSERT_TRUE(field_f64(line, "dur", &dur)) << line;
    EXPECT_EQ(pid, 1u);
    EXPECT_LE(tid, 2u);  // coordinator + 2 shards
    EXPECT_GE(ts, 0.0);
    EXPECT_GE(dur, 0.0);
    auto [it, fresh] = last_ts.try_emplace(tid, ts);
    if (!fresh) {
      EXPECT_GE(ts, it->second) << "ts not monotonic on tid " << tid;
      it->second = ts;
    }
  }
  EXPECT_EQ(x_events, 4u);
  // One thread_name per track that has events, plus the coordinator.
  EXPECT_EQ(meta_tids.size(), 3u);  // tids 0, 1, 2
}

// --- End-to-end recording paths --------------------------------------------

bt::SwarmConfig tiny_swarm() {
  bt::SwarmConfig config;
  config.file_size = DataSize::kib(256);
  config.seeders = 1;
  config.clients = 4;
  config.start_interval = Duration::sec(1);
  config.max_duration = Duration::sec(4000);
  return config;
}

TEST(ProfilerEngine, WorkersRecordAllPhasesAtK2) {
  core::PlatformConfig pc;
  pc.physical_nodes = 4;
  pc.shards = 2;
  const bt::SwarmConfig config = tiny_swarm();
  core::Platform platform(
      topology::homogeneous_dsl(bt::swarm_vnodes(config)), pc);
  platform.enable_profiling();
  bt::Swarm swarm(platform, config);
  swarm.run();
  ASSERT_TRUE(swarm.all_complete());

  const Profiler& prof = platform.profiler();
  ASSERT_EQ(prof.shard_count(), 2u);
  bool saw_execute = false;
  bool saw_wait = false;
  bool saw_merge = false;
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_GT(prof.shard_ring(s).total(), 0u) << "shard " << s;
    for (const PhaseSample& sample : prof.shard_ring(s).samples()) {
      saw_execute = saw_execute || sample.phase == Phase::kExecute;
      saw_wait = saw_wait || sample.phase == Phase::kBarrier;
      saw_merge = saw_merge || sample.phase == Phase::kMerge;
    }
  }
  EXPECT_TRUE(saw_execute);
  EXPECT_TRUE(saw_wait);
  // A 5-vnode swarm on 2 shards exchanges cross-shard packets; the handoff
  // work (ingress k-way merge, outbox presort) runs on the workers, so the
  // merge samples land in the shard rings, not the coordinator's.
  EXPECT_TRUE(saw_merge);

  const Rollup roll = prof.rollup();
  EXPECT_GT(roll.span_s, 0.0);
  for (const ShardRollup& sh : roll.shards) {
    EXPECT_GE(sh.utilization_pct, 0.0);
    EXPECT_LE(sh.utilization_pct, 100.0 + 1e-9);
    EXPECT_GT(sh.events, 0u);
  }
  EXPECT_GT(roll.merge_s, 0.0);
  EXPECT_GE(roll.imbalance_ratio, 1.0);
}

TEST(ProfilerEngine, TinyRingRollupCountsEveryDispatchedEvent) {
  // A 16-slot ring wraps within the first windows; the rollup's event
  // count must still match what the kernels dispatched over the whole run.
  core::PlatformConfig pc;
  pc.physical_nodes = 4;
  pc.shards = 2;
  const bt::SwarmConfig config = tiny_swarm();
  core::Platform platform(
      topology::homogeneous_dsl(bt::swarm_vnodes(config)), pc);
  platform.enable_profiling(16);
  bt::Swarm swarm(platform, config);
  swarm.run();
  ASSERT_TRUE(swarm.all_complete());

  const Rollup roll = platform.profiler().rollup();
  EXPECT_GT(roll.ring_dropped, 0u);
  std::uint64_t events = 0;
  for (const ShardRollup& shard : roll.shards) events += shard.events;
  EXPECT_EQ(events, platform.dispatched_events());
}

TEST(ProfilerEngine, SingleShardRecordsExecuteSamples) {
  core::PlatformConfig pc;
  pc.physical_nodes = 4;
  pc.shards = 1;
  pc.pin_workers = false;
  const bt::SwarmConfig config = tiny_swarm();
  core::Platform platform(
      topology::homogeneous_dsl(bt::swarm_vnodes(config)), pc);
  platform.enable_profiling();
  bt::Swarm swarm(platform, config);
  swarm.run();
  ASSERT_TRUE(swarm.all_complete());

  // One worker, one ring: every executed event is accounted to shard 0.
  const Profiler& prof = platform.profiler();
  ASSERT_EQ(prof.shard_count(), 1u);
  EXPECT_GT(prof.shard_ring(0).total(), 0u);
  std::uint64_t executed = 0;
  for (const PhaseSample& sample : prof.shard_ring(0).samples()) {
    if (sample.phase == Phase::kExecute) executed += sample.events;
  }
  EXPECT_GT(executed, 0u);
  const Rollup roll = prof.rollup();
  ASSERT_EQ(roll.shards.size(), 1u);
  EXPECT_GT(roll.shards[0].events, 0u);
  EXPECT_GE(roll.shards[0].utilization_pct, 0.0);
  EXPECT_LE(roll.shards[0].utilization_pct, 100.0 + 1e-9);
}

TEST(ResultsWriters, FullDiskIsReportedAsFailure) {
  // /dev/full accepts the open and fails every write: a truncated trace or
  // profile must not pass as written.
  setenv("P2PLAB_RESULTS_DIR", "/dev", 1);
  {
    metrics::ResultsFile file("full");
    ASSERT_NE(file.stream(), nullptr);
    std::fputs("row\n", file.stream());
    EXPECT_FALSE(file.close());
  }
  EXPECT_FALSE(metrics::write_results_file("full", "{}\n"));

  metrics::FlightRecorder rec;
  rec.record(SimTime::zero(), "t", "e");
  EXPECT_FALSE(rec.flush_to_results("full"));

  Profiler prof(1, 8);
  prof.shard_ring(0).push(sample_at(1000, 500, Phase::kExecute, 5));
  EXPECT_FALSE(prof.write_perfetto_to_results("full"));

  {
    const bt::SwarmConfig config = tiny_swarm();
    core::Platform platform(
        topology::homogeneous_dsl(bt::swarm_vnodes(config)),
        core::PlatformConfig{.physical_nodes = 2, .pin_workers = false});
    platform.enable_tracing();
    bt::Swarm swarm(platform, config);
    swarm.run();
    ASSERT_FALSE(platform.trace_lines().empty());
    EXPECT_FALSE(platform.flush_trace_to_results("full"));
  }
  unsetenv("P2PLAB_RESULTS_DIR");
}

TEST(ResultsWriters, EmptyDirectoryVariableWritesNothing) {
  // Set but empty means unset: no file lands at "/<name>".
  const std::string name = "p2plab_empty_results_dir_probe";
  std::filesystem::remove("/" + name + ".csv");
  setenv("P2PLAB_RESULTS_DIR", "", 1);
  {
    metrics::ResultsFile file(name + ".csv");
    EXPECT_EQ(file.stream(), nullptr);
    EXPECT_FALSE(file.close());
  }
  EXPECT_FALSE(metrics::write_results_file(name + ".csv", "x\n"));
  { metrics::CsvWriter csv(name, {"a"}); }
  unsetenv("P2PLAB_RESULTS_DIR");
  EXPECT_FALSE(std::filesystem::exists("/" + name + ".csv"));
  std::filesystem::remove("/" + name + ".csv");
}

}  // namespace
}  // namespace p2plab::profile
