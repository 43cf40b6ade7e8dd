// Wall-clock BSP profiler — strictly outside simulated state.
//
// The profiler answers the question the scaling benches cannot: where does
// shard wall-time go? Each engine worker records one sample per BSP-window
// phase — barrier wait, ingress merge, window execute, outbox presort
// (also kMerge: it is the source half of the merge), compaction — into
// per-shard fixed-capacity rings of POD samples. A coordinator ring
// (timeline track 0) is also kept, but nothing writes to it: it stays
// because the emubench harness reads its totals. Nothing here touches
// virtual time, event order or any simulation state: a profiled run is
// bit-identical to an unprofiled one (the determinism suite asserts this
// at K = 1/2/4). The rings are single-writer (one worker per ring) and
// are drained after run() joins the workers — and best-effort on
// assertion failure, alongside the flight recorder.
//
// Two sinks:
//   * perfetto_json(): a Chrome trace-event / Perfetto-compatible timeline,
//     one track per shard worker plus a coordinator track, so barrier skew
//     and shard imbalance are visible at ui.perfetto.dev;
//   * rollup(): aggregate per-shard utilization %, barrier-wait share,
//     merge share and the event-count imbalance ratio (max/mean shard) —
//     merged into the BENCH_*.json summaries and, via fold_into(), exposed
//     as `profile.*` metrics registry entries.
//
// Overflowing a ring drops the oldest sample without blocking the worker;
// drops are counted (profile.ring.dropped) so a truncated timeline is never
// silent. The rollup is not truncated: it is built from running totals
// each ring keeps in push(), so it covers the whole run at any capacity.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/registry.hpp"

namespace p2plab::profile {

/// The BSP-window phases a worker's wall-time divides into.
enum class Phase : std::uint8_t {
  kExecute,      // running the shard's events inside the window
  kBarrier,      // parked at the window barrier (includes coordinator skew)
  kMerge,        // cross-shard handoff work: ingress k-way merge at window
                 // start (destination side) and outbox presort at window
                 // end (source side)
  kCompact,      // kernel slab compaction at a window boundary
};

const char* phase_name(Phase phase);

/// One timed phase. POD: pushing a sample is a handful of stores.
struct PhaseSample {
  std::uint64_t start_ns = 0;  // wall clock, ns since the profiler's epoch
  std::uint64_t dur_ns = 0;
  std::uint64_t window = 0;       // BSP window index
  std::uint64_t events = 0;       // kernel events dispatched in the phase
  std::uint64_t queue_depth = 0;  // pending events at phase end
  Phase phase = Phase::kExecute;
};

/// Fixed-capacity single-writer sample ring. push() never blocks and never
/// allocates: overflow overwrites the oldest sample and counts the drop —
/// a slow drain must not perturb the worker it is measuring. Every push
/// also lands in running totals that wraparound never evicts.
class SampleRing {
 public:
  /// Whole-ring aggregates over every sample ever pushed.
  struct Totals {
    std::uint64_t phase_ns[4] = {};  // Σ dur_ns, indexed by Phase
    std::uint64_t execute_events = 0;
    std::uint64_t max_queue_depth = 0;
    std::uint64_t first_start_ns = UINT64_MAX;  // UINT64_MAX: no sample yet
    std::uint64_t last_end_ns = 0;
  };

  explicit SampleRing(std::size_t capacity);

  SampleRing(const SampleRing&) = delete;
  SampleRing& operator=(const SampleRing&) = delete;

  void push(const PhaseSample& sample) {
    buf_[next_] = sample;
    next_ = (next_ + 1) % buf_.size();
    ++total_;
    totals_.phase_ns[static_cast<std::size_t>(sample.phase)] += sample.dur_ns;
    if (sample.phase == Phase::kExecute) {
      totals_.execute_events += sample.events;
    }
    totals_.max_queue_depth =
        std::max(totals_.max_queue_depth, sample.queue_depth);
    totals_.first_start_ns = std::min(totals_.first_start_ns, sample.start_ns);
    totals_.last_end_ns =
        std::max(totals_.last_end_ns, sample.start_ns + sample.dur_ns);
  }

  const Totals& totals() const { return totals_; }

  std::size_t capacity() const { return buf_.size(); }
  std::size_t size() const { return total_ < buf_.size() ? total_ : buf_.size(); }
  std::uint64_t total() const { return total_; }
  /// Samples lost to wraparound (oldest-first eviction).
  std::uint64_t dropped() const {
    return total_ <= buf_.size() ? 0 : total_ - buf_.size();
  }

  /// Surviving samples, oldest first. Call only when the writer is parked
  /// (post-join, or the crash path's best-effort dump).
  std::vector<PhaseSample> samples() const;

 private:
  std::vector<PhaseSample> buf_;
  std::size_t next_ = 0;
  std::uint64_t total_ = 0;
  Totals totals_;
};

class Profiler {
 public:
  /// Per-worker wall-resource accounting, filled in by the owning thread.
  struct WorkerStats {
    double user_s = 0.0;  // getrusage(RUSAGE_THREAD), summed over runs
    double sys_s = 0.0;
    int pinned_cpu = -1;  // -1 = not pinned
  };

  struct ShardRollup {
    double execute_s = 0.0;
    double barrier_wait_s = 0.0;
    double merge_s = 0.0;  // ingress merge + outbox presort on this worker
    double compact_s = 0.0;
    double utilization_pct = 0.0;  // execute / profiled span
    std::uint64_t events = 0;
    std::uint64_t max_queue_depth = 0;
    WorkerStats stats;
  };

  struct Rollup {
    std::vector<ShardRollup> shards;
    double span_s = 0.0;               // first sample start .. last sample end
    double merge_s = 0.0;              // merge total (workers + coordinator)
    double barrier_wait_share = 0.0;   // Σ wait / Σ accounted worker time
    double merge_share = 0.0;          // merge_s / span_s
    double imbalance_ratio = 0.0;      // max/mean per-shard event count
    std::uint64_t ring_dropped = 0;    // over all rings
  };

  /// One ring per shard worker plus the coordinator ring. `shards` >= 1.
  explicit Profiler(std::size_t shards, std::size_t ring_capacity = 1 << 15);

  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  std::size_t shard_count() const { return shard_rings_.size(); }
  SampleRing& shard_ring(std::size_t shard) { return *shard_rings_.at(shard); }
  const SampleRing& shard_ring(std::size_t shard) const {
    return *shard_rings_.at(shard);
  }
  SampleRing& coordinator_ring() { return coordinator_ring_; }
  const SampleRing& coordinator_ring() const { return coordinator_ring_; }
  /// Single writer per slot: the shard's own worker thread; read after the
  /// workers joined.
  WorkerStats& worker_stats(std::size_t shard) { return stats_.at(shard); }

  /// Wall nanoseconds since this profiler's construction (steady clock).
  std::uint64_t now_ns() const;

  /// getrusage(RUSAGE_THREAD) totals of the calling thread (zeros where
  /// unavailable). Engine workers add their totals at thread exit (each
  /// run starts fresh threads, so the totals never double-count).
  struct ThreadTime {
    double user_s = 0.0;
    double sys_s = 0.0;
  };
  static ThreadTime thread_rusage();
  void add_worker_time(std::size_t shard, const ThreadTime& t) {
    stats_.at(shard).user_s += t.user_s;
    stats_.at(shard).sys_s += t.sys_s;
  }

  Rollup rollup() const;

  /// Chrome trace-event JSON (Perfetto-loadable): complete "X" events in
  /// microseconds, one pid, tid 0 = coordinator, tid s+1 = shard s. One
  /// event per line, so line-oriented tools can grep the timeline.
  std::string perfetto_json() const;
  /// Write perfetto_json() to $P2PLAB_RESULTS_DIR/<filename> (a
  /// metrics::ResultsFile); true iff written.
  bool write_perfetto_to_results(const char* filename) const;

  /// Merge the rollup into `reg` as `profile.*` gauges (idempotent — set,
  /// not add, so repeated folds cannot double-count).
  void fold_into(metrics::Registry& reg) const;

  /// File name the crash-path dump writes (default "profile.json").
  void set_crash_filename(std::string filename);

  /// Install/clear the assertion-failure drain for the calling thread: on
  /// P2PLAB_ASSERT failure the rings are dumped best-effort to the results
  /// dir, alongside the flight recorder's post-mortem. Pass nullptr on
  /// thread exit.
  static void set_thread_active(Profiler* profiler);

  /// CPUs this process may run on (affinity mask), ascending; the real
  /// online core count is the size of this list — *not*
  /// hardware_concurrency(), which ignores cpuset/affinity limits.
  static std::vector<int> online_cpu_list();
  static int online_cores();

 private:
  std::vector<std::unique_ptr<SampleRing>> shard_rings_;
  SampleRing coordinator_ring_;
  std::vector<WorkerStats> stats_;
  std::uint64_t epoch_ns_ = 0;  // steady-clock origin
  std::string crash_filename_ = "profile.json";
};

using ShardRollup = Profiler::ShardRollup;
using Rollup = Profiler::Rollup;

}  // namespace p2plab::profile
