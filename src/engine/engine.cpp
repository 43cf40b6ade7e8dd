#include "engine/engine.hpp"

#include <sched.h>

#include <algorithm>
#include <optional>
#include <thread>
#include <utility>

#include "common/assert.hpp"

namespace p2plab::engine {

Engine::Engine(Duration lookahead) : lookahead_(lookahead) {
  P2PLAB_ASSERT_MSG(lookahead_ > Duration::zero(),
                    "conservative synchronization needs positive lookahead");
}

std::size_t Engine::add_shard(sim::Simulation& sim, net::Network& network) {
  P2PLAB_ASSERT_MSG(!running_, "cannot add shards mid-run");
  const std::size_t index = sims_.size();
  sims_.push_back(&sim);
  networks_.push_back(&network);
  recorders_.push_back(nullptr);
  network.set_fabric_handoff(this);
  for (auto& parity : outbox_) {
    parity.assign(sims_.size(),
                  std::vector<std::vector<IngressEntry>>(sims_.size()));
  }
  merge_cursor_.assign(sims_.size(), std::vector<std::size_t>(sims_.size()));
  return index;
}

void Engine::set_recorder(std::size_t shard,
                          metrics::FlightRecorder* recorder) {
  recorders_.at(shard) = recorder;
}

void Engine::set_profiler(profile::Profiler* profiler) {
  P2PLAB_ASSERT_MSG(!running_, "cannot attach a profiler mid-run");
  P2PLAB_ASSERT_MSG(profiler == nullptr ||
                        profiler->shard_count() >= sims_.size(),
                    "profiler needs one ring per shard: add shards first");
  profiler_ = profiler;
}

void Engine::map_address(Ipv4Addr addr, std::size_t shard) {
  P2PLAB_ASSERT(shard < sims_.size());
  const auto [it, inserted] = shard_of_addr_.emplace(addr.to_u32(), shard);
  P2PLAB_ASSERT_MSG(inserted || it->second == shard,
                    "address mapped to two shards");
}

bool Engine::push(std::size_t src_host, std::uint64_t seq, SimTime stamp,
                  net::Packet packet) {
  const auto dst_it = shard_of_addr_.find(packet.dst.to_u32());
  if (dst_it == shard_of_addr_.end()) return false;  // never deployed
  // The source address was routable on its shard moments ago, so it is
  // mapped; the lookup names the outbox row this worker exclusively owns.
  const std::size_t src_shard = shard_of_addr_.at(packet.src.to_u32());
  P2PLAB_ASSERT_MSG(stamp >= window_end_,
                    "lookahead violated: handoff stamp inside the window");
  outbox_[write_parity_][src_shard][dst_it->second].push_back(
      IngressEntry{stamp, src_host, seq, std::move(packet)});
  return true;
}

std::size_t Engine::pending_handoffs() const {
  std::size_t total = 0;
  for (const auto& parity : outbox_) {
    for (const auto& row : parity) {
      for (const auto& box : row) total += box.size();
    }
  }
  return total;
}

Engine::StopReason Engine::run(SimTime deadline,
                               std::function<bool()> stop_predicate,
                               Duration check_interval,
                               std::function<void()> on_barrier) {
  P2PLAB_ASSERT_MSG(!sims_.empty(), "no shards registered");
  P2PLAB_ASSERT(check_interval > Duration::zero());
  deadline_ = deadline;
  stop_predicate_ = std::move(stop_predicate);
  on_barrier_ = std::move(on_barrier);
  check_interval_ = check_interval;
  // Evaluate the predicate before executing anything: the caller's stop
  // condition may already hold (e.g. resuming a finished swarm).
  next_check_ = cursor_;
  phase_ = Phase::kRunWindow;
  running_ = true;

  worker_cpus_.assign(sims_.size(), -1);
  if (pin_workers_) pin_cpu_list_ = profile::Profiler::online_cpu_list();

  // Spin only when every worker can own a core (the same condition under
  // which the platform pins): on a time-sliced core a spinning waiter
  // steals the cycles of the very thread it waits for.
  const bool cores_for_all = profile::Profiler::online_cores() >=
                             static_cast<int>(sims_.size());
  barrier_ = std::make_unique<PhaseBarrier>(sims_.size(),
                                            cores_for_all ? kSpinRounds : 0);
  std::vector<std::thread> threads;
  threads.reserve(sims_.size());
  for (std::size_t s = 0; s < sims_.size(); ++s) {
    threads.emplace_back([this, s] { worker(s); });
  }
  for (auto& t : threads) t.join();
  running_ = false;

  if (phase_ == Phase::kStopDeadline) {
    // The stop proves no shard holds an event before the deadline (parked
    // handoffs included: the global minimum covered their run fronts), so
    // advancing every clock there is safe — run_until semantics.
    for (auto* sim : sims_) {
      if (sim->now() < deadline_) sim->advance_to(deadline_);
    }
    if (cursor_ < deadline_) cursor_ = deadline_;
  }
  stop_predicate_ = nullptr;
  on_barrier_ = nullptr;
  switch (phase_) {
    case Phase::kStopPredicate: return StopReason::kPredicate;
    case Phase::kStopDeadline: return StopReason::kDeadline;
    default: return StopReason::kDrained;
  }
}

void Engine::pin_worker(std::size_t shard) {
  if (pin_cpu_list_.empty()) return;
  const int cpu = pin_cpu_list_[shard % pin_cpu_list_.size()];
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<std::size_t>(cpu), &set);
  // pid 0 = the calling thread; each slot of worker_cpus_ has one writer.
  if (sched_setaffinity(0, sizeof set, &set) == 0) {
    worker_cpus_[shard] = cpu;
    if (profiler_ != nullptr) {
      profiler_->worker_stats(shard).pinned_cpu = cpu;
    }
  }
}

std::uint64_t Engine::merge_ingress(std::size_t d) {
  // The buffer the *previous* window filled; its runs were sorted by their
  // source workers before the barrier, and the barrier's parity flip plus
  // its happens-before edges make them safely readable here while the
  // sources already fill the other buffer.
  auto& boxes = outbox_[write_parity_ ^ 1];
  const std::size_t k = sims_.size();
  std::vector<std::size_t>& cursor = merge_cursor_[d];
  bool any = false;
  for (std::size_t s = 0; s < k; ++s) {
    cursor[s] = 0;
    any = any || !boxes[s][d].empty();
  }
  if (!any) return 0;

  net::Network* const net = networks_[d];
  sim::Simulation* const sim = sims_[d];
  std::uint64_t merged = 0;
  // k-way merge on the strict (stamp, src host, seq) key. Equal keys are
  // impossible across runs (a source host lives on one shard), so the
  // insertion sequence equals the old coordinator's global sort — which is
  // what keeps K-shard traces byte-identical.
  for (;;) {
    IngressEntry* best = nullptr;
    std::size_t best_s = 0;
    for (std::size_t s = 0; s < k; ++s) {
      auto& box = boxes[s][d];
      if (cursor[s] >= box.size()) continue;
      IngressEntry& e = box[cursor[s]];
      if (best == nullptr || entry_before(e, *best)) {
        best = &e;
        best_s = s;
      }
    }
    if (best == nullptr) break;
    ++cursor[best_s];
    ++merged;
    // Re-materialize the packet from the *destination* shard's pool on the
    // destination's own worker thread. The arrival event then carries a
    // 16-byte capture — zero allocations at dispatch.
    sim->schedule_at(
        best->stamp,
        [net, ref = net->pool().acquire(std::move(best->packet))]() mutable {
          net->fabric_arrive(std::move(ref));
        });
  }
  for (std::size_t s = 0; s < k; ++s) boxes[s][d].clear();
  return merged;
}

std::uint64_t Engine::presort_outbox(std::size_t s) {
  auto& row = outbox_[write_parity_][s];
  std::uint64_t sorted = 0;
  for (auto& box : row) {
    if (box.size() > 1) {
      std::sort(box.begin(), box.end(), &Engine::entry_before);
    }
    sorted += box.size();
  }
  return sorted;
}

void Engine::worker(std::size_t shard) {
  if (pin_workers_) pin_worker(shard);
  metrics::FlightRecorder* const rec = recorders_[shard];
  if (rec != nullptr) metrics::FlightRecorder::set_active(rec);
  profile::Profiler* const prof = profiler_;
  profile::SampleRing* const ring =
      prof != nullptr ? &prof->shard_ring(shard) : nullptr;
  if (prof != nullptr) profile::Profiler::set_thread_active(prof);
  sim::Simulation& sim = *sims_[shard];
  for (;;) {
    // All profiling below is wall-clock-only bookkeeping between windows:
    // it cannot perturb virtual time or event order (the determinism suite
    // runs the golden trace with profiling on to prove it).
    const std::uint64_t t0 = ring != nullptr ? prof->now_ns() : 0;
    barrier_->arrive_and_wait([this] { coordinate(); });
    const std::uint64_t t1 = ring != nullptr ? prof->now_ns() : 0;
    if (ring != nullptr) {
      ring->push(profile::PhaseSample{.start_ns = t0,
                                      .dur_ns = t1 - t0,
                                      .window = window_index_,
                                      .events = 0,
                                      .queue_depth = sim.pending_events(),
                                      .phase = profile::Phase::kBarrier});
    }
    if (phase_ != Phase::kRunWindow) break;
    // Raise the kernel's near-tier horizon first, so this window's merged
    // arrivals land in the small near heap.
    sim.open_window(window_end_);
    const std::uint64_t merged = merge_ingress(shard);
    const std::uint64_t t2 = ring != nullptr ? prof->now_ns() : t1;
    if (ring != nullptr && merged > 0) {
      ring->push(profile::PhaseSample{.start_ns = t1,
                                      .dur_ns = t2 - t1,
                                      .window = window_index_,
                                      .events = merged,
                                      .queue_depth = sim.pending_events(),
                                      .phase = profile::Phase::kMerge});
    }
    const std::uint64_t ev0 = ring != nullptr ? sim.dispatched_events() : 0;
    sim.run_before(window_end_);
    sim.advance_to(window_end_);
    const std::uint64_t t3 = ring != nullptr ? prof->now_ns() : 0;
    if (ring != nullptr) {
      ring->push(profile::PhaseSample{.start_ns = t2,
                                      .dur_ns = t3 - t2,
                                      .window = window_index_,
                                      .events = sim.dispatched_events() - ev0,
                                      .queue_depth = sim.pending_events(),
                                      .phase = profile::Phase::kExecute});
    }
    const std::uint64_t sorted = presort_outbox(shard);
    if (ring != nullptr && sorted > 0) {
      const std::uint64_t t4 = prof->now_ns();
      ring->push(profile::PhaseSample{.start_ns = t3,
                                      .dur_ns = t4 - t3,
                                      .window = window_index_,
                                      .events = sorted,
                                      .queue_depth = sim.pending_events(),
                                      .phase = profile::Phase::kMerge});
    }
    // Window boundaries derive only from global quantities, so shrinking
    // here is partition-independent (slot-reuse order is unobservable).
    const std::uint64_t t5 = ring != nullptr ? prof->now_ns() : 0;
    if (sim.maybe_compact() && ring != nullptr) {
      ring->push(profile::PhaseSample{.start_ns = t5,
                                      .dur_ns = prof->now_ns() - t5,
                                      .window = window_index_,
                                      .events = 0,
                                      .queue_depth = sim.pending_events(),
                                      .phase = profile::Phase::kCompact});
    }
  }
  if (prof != nullptr) {
    prof->add_worker_time(shard, profile::Profiler::thread_rusage());
    profile::Profiler::set_thread_active(nullptr);
  }
  if (rec != nullptr) metrics::FlightRecorder::set_active(nullptr);
}

void Engine::coordinate() {
  if (on_barrier_) on_barrier_();
  // 1. Global minimum pending time over the simulations *and* the parked
  //    handoff runs (sorted by their producers, so each front is that run's
  //    minimum). This equals the minimum the old coordinator saw after its
  //    eager merge, so window schedules are unchanged — but the merge work
  //    itself now runs on the destination workers, inside the window.
  std::optional<SimTime> gmin;
  auto consider = [&gmin](SimTime t) {
    if (!gmin.has_value() || t < *gmin) gmin = t;
  };
  for (auto* sim : sims_) {
    const auto t = sim->next_event_time();
    if (t.has_value()) consider(*t);
  }
  for (const auto& parity : outbox_) {
    for (const auto& row : parity) {
      for (const auto& box : row) {
        if (!box.empty()) consider(box.front().stamp);
      }
    }
  }

  // 2. Stop predicate, on the fixed check grid. cursor_ only ever lands on
  //    barrier times, which are shard-count independent, so the predicate
  //    is evaluated at identical simulated instants for every K.
  if (stop_predicate_ && cursor_ >= next_check_) {
    while (next_check_ <= cursor_) next_check_ += check_interval_;
    if (stop_predicate_()) {
      phase_ = Phase::kStopPredicate;
      return;
    }
  }

  if (!gmin.has_value()) {
    phase_ = Phase::kStopDrained;
    return;
  }
  if (*gmin >= deadline_) {
    // Nothing left before the deadline; run() advances every clock to it.
    phase_ = Phase::kStopDeadline;
    return;
  }

  // 3. Next window: fast-forward empty regions of the fixed L-grid straight
  //    to the window [wL, (w+1)L) holding the earliest event. Every event
  //    executed in it satisfies t >= wL, so every handoff stamp is
  //    >= wL + L >= window end — the push() contract. The grid and gmin
  //    are global quantities, so the window sequence is identical for
  //    every shard count.
  const std::int64_t l_ns = lookahead_.count_ns();
  const std::int64_t w = gmin->count_ns() / l_ns;
  window_end_ = std::min(SimTime::from_ns((w + 1) * l_ns), deadline_);
  cursor_ = window_end_;
  ++window_index_;
  // Flip the buffers: the window that starts now merges what the previous
  // window pushed and pushes into the freshly drained buffer.
  write_parity_ ^= 1;
  phase_ = Phase::kRunWindow;
}

}  // namespace p2plab::engine
