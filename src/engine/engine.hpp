// Sharded parallel runtime: conservative synchronization on a fixed grid.
//
// The engine partitions the platform's physical hosts into K shards, each
// owning a private Simulation, Network (firewalls, NICs, hosted vnodes) and
// SocketManager, driven by one worker thread. Shards execute in lockstep
// windows of length L — the engine's lookahead — separated by barriers:
//
//   barrier: pick the next window [start, end) (or a stop)
//   window:  each shard raises its kernel's near-tier horizon to `end`
//            (Simulation::open_window), k-way merges the handoff packets
//            addressed to it, runs its own events with time < end, then
//            sorts the handoff runs it produced for the next merge
//
// L = (minimum emulated access-link delay) + switch latency. Every
// inter-host packet pays at least one source access pipe before it can
// touch another host, and in engine mode that pipe's fixed delay is
// *deferred* into the handoff stamp (net/network.hpp). A packet sent at
// time t therefore arrives no earlier than t + L, which lands at or beyond
// the end of the current window: no shard can receive an event for the
// window it is executing, the classic conservative-lookahead argument.
//
// Cross-shard handoff is double-buffered: during window w every source
// shard appends to its private (src, dst) runs of buffer w&1 and sorts them
// before arriving at the barrier; during window w+1 every destination shard
// k-way merges the K sorted runs addressed to it from buffer w&1 while
// sources already fill buffer (w+1)&1. The merge work that PR 3 ran on the
// single coordinator thread under the barrier is thereby spread across all
// workers, and the barrier completion is reduced to picking the next
// window. A k-way merge of sorted runs on the strict (stamp, src host,
// seq) key inserts entries into the destination simulation in exactly the
// order the old global sort did, so traces are byte-identical with PR 3.
//
// Determinism is the point, not just safety. A K-shard run is bit-identical
// to the 1-shard engine run because every source of ordering is keyed on
// shard-independent values:
//   * the window schedule is derived only from global quantities (the fixed
//     L-grid and the global minimum pending-event time),
//   * all inter-host packets — even same-shard ones — take the handoff
//     path, so the event sequence cannot depend on the partition,
//   * merged ingress is ordered by (stamp, source host global index, per-
//     source sequence), a total order with no ties,
//   * per-host rng streams, connection ids and trace rings are keyed on
//     the host's *global* index.
// Events of different hosts inside one window commute (all mutable state is
// host-local), so per-host event subsequences are partition-independent by
// induction — which is what the golden-trace test in tests/engine asserts.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/ipv4.hpp"
#include "common/time.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "profile/profiler.hpp"
#include "sim/simulation.hpp"

namespace p2plab::engine {

/// Pause-instruction hint for spin loops.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Reusable K-party barrier. The last thread to arrive runs `completion`
/// while the others are still waiting, giving it exclusive access to all
/// shard state with happens-before edges in both directions: the arrival
/// counter's release sequence, and the generation word's release/acquire
/// pair. Waiters poll the generation with `spin_rounds` pause instructions,
/// then fall back to yielding between polls. The engine derives the budget
/// (Engine::run): spinning pays off only when every worker owns a core, and
/// on a time-sliced core it steals cycles from the very thread it waits for.
class PhaseBarrier {
 public:
  PhaseBarrier(std::size_t parties, std::uint32_t spin_rounds)
      : parties_(parties), spin_rounds_(spin_rounds) {}

  PhaseBarrier(const PhaseBarrier&) = delete;
  PhaseBarrier& operator=(const PhaseBarrier&) = delete;

  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    // A party re-enters only after observing the generation advance, so
    // this relaxed read cannot see a stale round: the round cannot end
    // without this thread's own arrival.
    const std::uint64_t gen = generation_.load(std::memory_order_relaxed);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      completion();
      arrived_.store(0, std::memory_order_relaxed);
      generation_.store(gen + 1, std::memory_order_release);
      return;
    }
    const std::uint32_t budget = spin_rounds_;
    std::uint32_t spins = 0;
    while (generation_.load(std::memory_order_acquire) == gen) {
      if (++spins <= budget) {
        cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }

 private:
  std::size_t parties_;
  std::uint32_t spin_rounds_;
  std::atomic<std::size_t> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};
};

/// The sharded runtime. Owns no simulation state itself — shards register
/// their Simulation/Network pair and the engine installs itself as the
/// network's FabricHandoff. K = 1 is fully supported and is the baseline
/// the determinism guarantee is stated against.
class Engine final : public net::FabricHandoff {
 public:
  enum class StopReason {
    kDrained,    // no shard has any pending event or parked handoff
    kPredicate,  // the stop predicate returned true at a barrier
    kDeadline,   // the next window would start at or past the deadline
  };

  /// `lookahead` must be a positive lower bound on the latency of every
  /// inter-host path (min access-link delay + switch latency).
  explicit Engine(Duration lookahead);

  /// Register a shard; returns its index. Installs the engine as `network`'s
  /// fabric handoff. All shards must be added before the first run().
  std::size_t add_shard(sim::Simulation& sim, net::Network& network);

  /// Activate `recorder` on the shard's worker thread for the duration of
  /// each run (per-shard rings keep tracing race-free).
  void set_recorder(std::size_t shard, metrics::FlightRecorder* recorder);

  /// Attach a wall-clock profiler (all shards must be added first; the
  /// profiler needs one ring per shard). Workers then record barrier-wait /
  /// merge / execute / compact phase samples into their own ring — all
  /// wall-clock-only, so virtual time and event order stay bit-identical.
  /// nullptr detaches.
  void set_profiler(profile::Profiler* profiler);

  /// Pin each worker thread to one online CPU (round-robin over the
  /// process affinity mask) at the start of every run. Off by default;
  /// the platform enables it when online cores >= shards.
  void set_pin_workers(bool pin) { pin_workers_ = pin; }
  bool pin_workers() const { return pin_workers_; }
  /// CPU each shard's worker was pinned to during the last run (-1 = not
  /// pinned). Valid after run() returns; empty before the first run.
  const std::vector<int>& worker_cpus() const { return worker_cpus_; }

  /// Declare that `addr` lives on `shard`. Mappings are static: a crashed
  /// vnode's address stays mapped (withdrawal is the destination shard's
  /// business); push() returns false only for addresses never mapped.
  void map_address(Ipv4Addr addr, std::size_t shard);

  std::size_t shard_count() const { return sims_.size(); }
  Duration lookahead() const { return lookahead_; }
  /// Barrier time: every shard has executed all its events before this.
  SimTime now() const { return cursor_; }

  /// Handoff entries parked in the outbox buffers (pushed but not yet
  /// merged into their destination simulation — possible across stop()
  /// boundaries, since merging is part of the *next* window). Call only
  /// between runs.
  std::size_t pending_handoffs() const;

  /// Run all shards until `deadline` (clocks advance to it), the optional
  /// `stop_predicate` returns true (evaluated under the barrier, on the
  /// fixed grid of `check_interval` multiples so the evaluation schedule is
  /// shard-count-independent), or every shard drains. `on_barrier`, when
  /// set, runs under every barrier before the stop checks, with every
  /// worker parked: the hook for observers of cross-shard state. Resumable:
  /// a stopped engine continues exactly where it left off on the next call.
  StopReason run(SimTime deadline, std::function<bool()> stop_predicate = {},
                 Duration check_interval = Duration::sec(5),
                 std::function<void()> on_barrier = {});

  /// FabricHandoff: called by a shard's Network for every inter-host
  /// packet. `stamp` must land at or beyond the current window's end —
  /// that is the lookahead contract, and it is asserted. The stamp is
  /// never moved: the emulated latency reaches the destination unchanged.
  bool push(std::size_t src_host, std::uint64_t seq, SimTime stamp,
            net::Packet packet) override;

 private:
  /// Barrier spin budget while every worker owns a core: long enough to
  /// cover coordinator latency, short enough to bound waste on a stolen
  /// core. With fewer cores than shards the budget is 0 (yield at once).
  static constexpr std::uint32_t kSpinRounds = 1u << 14;

  struct IngressEntry {
    SimTime stamp;
    std::size_t src_host;
    std::uint64_t seq;
    net::Packet packet;
  };

  /// The (stamp, src host, seq) merge key — strict total order: seq is per
  /// source host, and a host lives on exactly one shard.
  static bool entry_before(const IngressEntry& a, const IngressEntry& b) {
    if (a.stamp != b.stamp) return a.stamp < b.stamp;
    if (a.src_host != b.src_host) return a.src_host < b.src_host;
    return a.seq < b.seq;
  }

  enum class Phase { kRunWindow, kStopDrained, kStopPredicate, kStopDeadline };

  void worker(std::size_t shard);
  void pin_worker(std::size_t shard);
  /// Barrier completion: decide the next window or a stop from the global
  /// minimum pending time (simulations plus sorted handoff-run fronts).
  /// Runs with exclusive access to all shards.
  void coordinate();
  /// k-way merge of the sorted handoff runs addressed to shard `d` from
  /// the buffer filled in the previous window; schedules each packet's
  /// fabric_arrive at its stamp. Returns the number of packets merged.
  std::uint64_t merge_ingress(std::size_t d);
  /// Sort the handoff runs shard `s` produced this window, so the next
  /// window's merges and the coordinator's front scan see ordered runs.
  /// Returns the number of entries sorted.
  std::uint64_t presort_outbox(std::size_t s);

  Duration lookahead_;
  std::vector<sim::Simulation*> sims_;
  std::vector<net::Network*> networks_;
  std::vector<metrics::FlightRecorder*> recorders_;
  profile::Profiler* profiler_ = nullptr;
  bool pin_workers_ = false;
  std::vector<int> worker_cpus_;
  std::vector<int> pin_cpu_list_;  // affinity mask snapshot, per run
  std::unordered_map<std::uint32_t, std::size_t> shard_of_addr_;

  // outbox_[parity][src_shard][dst_shard]: double-buffered handoff runs.
  // During a window, buffer `write_parity_` rows are written by exactly one
  // worker each (the source shard's, which also sorts them before the
  // barrier) while buffer `write_parity_ ^ 1` columns are merged by exactly
  // one worker each (the destination shard's) — no row/column overlaps, and
  // the barrier orders the parity flip against both sides.
  std::vector<std::vector<std::vector<IngressEntry>>> outbox_[2];
  /// Per-destination merge cursors (merge_cursor_[d][s]): scratch owned by
  /// shard d's worker during its merge.
  std::vector<std::vector<std::size_t>> merge_cursor_;

  std::unique_ptr<PhaseBarrier> barrier_;
  /// Buffer index push() writes; flipped by the coordinator per window.
  std::size_t write_parity_ = 0;
  SimTime cursor_ = SimTime::zero();      // completed through here
  SimTime window_end_ = SimTime::zero();  // end of the window in flight
  /// Monotonic count of barrier completions; labels profile samples.
  /// Written by the coordinator with exclusive access at the barrier, read
  /// by workers after they leave it (ordered both ways by the barrier).
  std::uint64_t window_index_ = 0;
  SimTime next_check_ = SimTime::zero();
  SimTime deadline_ = SimTime::max();
  Duration check_interval_ = Duration::sec(5);
  std::function<bool()> stop_predicate_;
  std::function<void()> on_barrier_;
  Phase phase_ = Phase::kRunWindow;
  bool running_ = false;
};

}  // namespace p2plab::engine
