// Discrete-event simulation kernel.
//
// A Simulation owns the virtual clock and a two-tier event queue. Events
// are closures scheduled at absolute or relative times; ties dispatch in
// scheduling order (FIFO), which the rest of the platform relies on for
// determinism.
//
// Storage is split: callbacks live in a slab (stable slots, recycled via a
// free list) and 4-ary heaps order compact 24-byte {when, seq, slot}
// entries. That makes cancel() a true O(1) slab store (no scan, no heap
// surgery — the entry is dropped lazily at pop time) and keeps sift swaps
// small: a swap moves 24 bytes instead of a whole closure, which matters
// because dispatch cost dominates 10^8-event runs.
//
// Two tiers. Entries before a *horizon* live in the near heap, entries at
// or after it in the far heap. The parallel engine raises the horizon to
// each BSP window's end (open_window), so the near heap holds about one
// window of traffic — tens of entries — while long-period protocol
// timers sit untouched in the far heap instead of deepening every sift on
// the hot path. Raising the horizon moves the far entries it passes into the
// near heap, so every near entry precedes every far entry: the next event
// is the near top when the near heap is non-empty, else the far top. Both
// heaps order by the same (when, seq) key, and an entry's seq is fixed
// when it is scheduled, not when it changes tier — so the dispatch order
// is exactly the single-heap order, ties across tiers included. Driven
// only through step()/run()/run_until(), the horizon stays at zero and
// the far heap is the whole queue.
//
// The kernel itself is single-threaded: one Simulation is one logical
// timeline and must only ever be driven from one thread at a time. The
// parallel engine (src/engine) runs K independent Simulations — one per
// shard — and merges cross-shard traffic deterministically; see
// engine/engine.hpp for the synchronization protocol, which uses
// next_event_time() / open_window() / advance_to() / run_before() to
// interleave a shard's queue with its cross-shard ingress.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/time.hpp"
#include "metrics/registry.hpp"
#include "sim/inline_callback.hpp"

namespace p2plab::sim {

/// Handle identifying a scheduled event; valid until the event fires or is
/// cancelled. The default-constructed id is "invalid" and safe to cancel.
class EventId {
 public:
  constexpr EventId() = default;
  constexpr bool valid() const { return seq_ != 0; }
  constexpr auto operator<=>(const EventId&) const = default;

 private:
  friend class Simulation;
  constexpr EventId(std::uint64_t seq, std::uint32_t slot)
      : seq_(seq), slot_(slot) {}
  std::uint64_t seq_ = 0;
  std::uint32_t slot_ = 0;
};

class Simulation {
 public:
  /// Event closures are small-buffer-optimized and move-only; typical
  /// captures (a few pointers + a packet handle) never touch the
  /// allocator. Oversized captures still work — they fall back to the
  /// heap and tick sim.alloc.callback_heap_fallbacks.
  using Callback = InlineCallback;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedule `cb` at absolute time `when` (>= now). Taken by rvalue
  /// reference: the closure is relocated once, into its slab slot.
  EventId schedule_at(SimTime when, Callback&& cb) {
    P2PLAB_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    if (cb.on_heap()) metrics_.callback_heap_fallbacks.inc();
    const std::uint64_t seq = ++next_seq_;
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slab_.size());
      slab_.emplace_back(seq, std::move(cb), false);
      metrics_.slab_capacity.set(static_cast<double>(slab_.capacity()));
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
      // Field by field: one relocation of the closure, not two through a
      // temporary Slot. A free slot's callback is already empty.
      Slot& s = slab_[slot];
      s.seq = seq;
      s.cb = std::move(cb);
      s.cancelled = false;
    }
    (when < horizon_ ? near_ : far_).push(HeapEntry{when, seq, slot});
    ++live_events_;
    metrics_.scheduled.inc();
    return EventId{seq, slot};
  }

  /// Schedule `cb` after a relative delay (>= 0).
  EventId schedule_after(Duration delay, Callback&& cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancel a pending event in O(1): the slab slot is flagged and the heap
  /// entry is discarded when it reaches the top. Returns true if the event
  /// was still pending. Safe to call with an invalid/fired/already-cancelled
  /// id (slot recycling is disambiguated by the sequence number).
  bool cancel(EventId id) {
    if (!id.valid() || id.slot_ >= slab_.size()) return false;
    Slot& s = slab_[id.slot_];
    if (s.seq != id.seq_ || s.cancelled) return false;
    s.cancelled = true;
    s.cb = nullptr;  // release captures promptly
    --live_events_;
    metrics_.cancelled.inc();
    return true;
  }

  /// Number of pending (non-cancelled) events.
  size_t pending_events() const { return live_events_; }

  /// Total events dispatched so far.
  std::uint64_t dispatched_events() const { return dispatched_; }

  /// Time of the next pending event, skipping cancelled entries; nullopt if
  /// the queue is empty.
  std::optional<SimTime> next_event_time() {
    const EventHeap* tier = live_top();
    if (tier == nullptr) return std::nullopt;
    return tier->top().when;
  }

  /// Raise the tier horizon to `horizon`: events before it go to the near
  /// heap. The parallel engine calls this with each window's end before
  /// merging the window's ingress. Monotone — a horizon at or below the
  /// current one is ignored — and invisible to dispatch order.
  void open_window(SimTime horizon) {
    if (horizon <= horizon_) return;
    horizon_ = horizon;
    while (!far_.empty() && far_.top().when < horizon_) {
      const HeapEntry e = far_.pop();
      if (slab_[e.slot].cancelled) {
        free_slots_.push_back(e.slot);
      } else {
        near_.push(e);
      }
    }
  }

  /// Advance the clock without running events. Used by the parallel engine
  /// to move a quiescent shard to a window boundary (and by tests); all
  /// pending events must lie at or after `t`.
  void advance_to(SimTime t) {
    P2PLAB_ASSERT_MSG(t >= now_, "cannot advance the clock backwards");
    now_ = t;
  }

  /// Run one event. Returns false if the queue is empty.
  bool step() {
    EventHeap* tier = live_top();
    if (tier == nullptr) return false;
    dispatch(tier->pop());
    metrics_.queue_depth.set(static_cast<double>(live_events_));
    return true;
  }

  /// Run until the queue drains.
  void run() {
    while (step()) {
    }
  }

  /// Run until the clock would pass `deadline`; the clock is left at
  /// min(deadline, time of last event). Events at exactly `deadline` run.
  void run_until(SimTime deadline) {
    for (EventHeap* tier; (tier = live_top()) != nullptr &&
                          tier->top().when <= deadline;) {
      dispatch(tier->pop());
    }
    metrics_.queue_depth.set(static_cast<double>(live_events_));
    if (now_ < deadline) now_ = deadline;
  }

  /// Run events strictly before `end`; the clock is NOT advanced to `end`
  /// (the parallel engine owns window-boundary clock advancement). One
  /// fused loop: prune, compare with `end`, pop and dispatch, with the
  /// queue-depth gauge refreshed once on the way out.
  void run_before(SimTime end) {
    for (EventHeap* tier;
         (tier = live_top()) != nullptr && tier->top().when < end;) {
      dispatch(tier->pop());
    }
    metrics_.queue_depth.set(static_cast<double>(live_events_));
  }

  /// Slots currently allocated in the slab (capacity watermark; the gauge
  /// sim.slab.capacity tracks the backing vector's capacity).
  size_t slab_size() const { return slab_.size(); }

  /// Shrink kernel storage after a burst: recycle every cancelled heap
  /// entry in both tiers, pop dead trailing slab slots, and release excess
  /// vector capacity. Dispatch order is untouched — each tier is rebuilt
  /// on the same (when, seq) total order and keeps its entries — so this
  /// is safe at any quiescent point; the parallel engine calls
  /// maybe_compact() at window boundaries, where each shard's kernel is
  /// between events by construction.
  void compact() {
    near_.compact(slab_, free_slots_);
    far_.compact(slab_, free_slots_);
    // Only trailing dead slots can be returned; interior ones must stay,
    // since live heap entries index into the slab.
    while (!slab_.empty() && slab_.back().cancelled) slab_.pop_back();
    std::erase_if(free_slots_, [this](std::uint32_t s) {
      return s >= slab_.size();
    });
    if (slab_.capacity() > 2 * slab_.size()) slab_.shrink_to_fit();
    if (free_slots_.capacity() > 2 * free_slots_.size()) {
      free_slots_.shrink_to_fit();
    }
    last_compact_slots_ = slab_.size();
    metrics_.slab_capacity.set(static_cast<double>(slab_.capacity()));
  }

  /// compact() when the slab is mostly dead after a burst (occupancy
  /// < 25% over at least kCompactMinSlots). The slab-size memo makes the
  /// check O(1) between growths: a compact that could not shrink (a live
  /// slot pins the tail) is not retried until the slab grows again.
  /// Returns whether it compacted (the engine times the ones that do).
  bool maybe_compact() {
    if (slab_.size() < kCompactMinSlots || live_events_ * 4 >= slab_.size() ||
        slab_.size() == last_compact_slots_) {
      return false;
    }
    compact();
    return true;
  }

  /// Resolve kernel metrics from `reg`. Call before running: the counters
  /// count from the moment they are bound (a fresh simulation keeps
  /// `sim.events.dispatched` equal to dispatched_events()). Binding also
  /// enables the sampled dispatch-time histogram. `reg` must outlive the
  /// simulation AND its users: component teardown that cancels events
  /// still increments the bound counters.
  void bind_metrics(metrics::Registry& reg) {
    metrics_.scheduled = reg.counter("sim.events.scheduled");
    metrics_.dispatched = reg.counter("sim.events.dispatched");
    metrics_.cancelled = reg.counter("sim.events.cancelled");
    metrics_.queue_depth = reg.gauge("sim.queue.depth");
    metrics_.queue_depth.set(static_cast<double>(live_events_));
    metrics_.callback_heap_fallbacks =
        reg.counter("sim.alloc.callback_heap_fallbacks");
    metrics_.slab_capacity = reg.gauge("sim.slab.capacity");
    metrics_.slab_capacity.set(static_cast<double>(slab_.capacity()));
    metrics_.dispatch_ns = reg.histogram(
        "sim.dispatch.wall_ns",
        {100, 250, 500, 1000, 2500, 5000, 10000, 25000, 100000, 1000000});
    profile_dispatch_ = true;
  }

 private:
  /// Slab cell: the closure plus the seq that disambiguates slot reuse.
  struct Slot {
    std::uint64_t seq = 0;
    Callback cb;
    bool cancelled = false;
  };

  /// Compact heap entry; ordering key only, so sift swaps stay cheap.
  struct HeapEntry {
    SimTime when;
    std::uint64_t seq = 0;  // tie-break: FIFO among same-time events
    std::uint32_t slot = 0;

    bool before(const HeapEntry& other) const {
      if (when != other.when) return when < other.when;
      return seq < other.seq;
    }
  };

  /// One tier: a 4-ary min-heap on (when, seq) — half the depth of a
  /// binary heap and fewer cache misses.
  class EventHeap {
   public:
    bool empty() const { return v_.empty(); }
    const HeapEntry& top() const { return v_.front(); }

    void push(HeapEntry e) {
      v_.push_back(e);
      size_t i = v_.size() - 1;
      while (i > 0) {
        const size_t parent = (i - 1) / kArity;
        if (!v_[i].before(v_[parent])) break;
        std::swap(v_[i], v_[parent]);
        i = parent;
      }
    }

    HeapEntry pop() {
      P2PLAB_ASSERT(!v_.empty());
      const HeapEntry top = v_.front();
      v_.front() = v_.back();
      v_.pop_back();
      const size_t n = v_.size();
      for (size_t i = 0;;) {
        const size_t first_child = kArity * i + 1;
        if (first_child >= n) break;
        const size_t last_child = std::min(first_child + kArity, n);
        size_t smallest = i;
        for (size_t c = first_child; c < last_child; ++c) {
          if (v_[c].before(v_[smallest])) smallest = c;
        }
        if (smallest == i) break;
        std::swap(v_[i], v_[smallest]);
        i = smallest;
      }
      return top;
    }

    /// Recycle cancelled entries' slots into `free_slots` and rebuild the
    /// heap sorted — a sorted array satisfies the invariant for any arity.
    void compact(const std::vector<Slot>& slab,
                 std::vector<std::uint32_t>& free_slots) {
      std::erase_if(v_, [&](const HeapEntry& e) {
        if (!slab[e.slot].cancelled) return false;
        free_slots.push_back(e.slot);
        return true;
      });
      std::sort(v_.begin(), v_.end(), [](const HeapEntry& a,
                                         const HeapEntry& b) {
        return a.before(b);
      });
      if (v_.capacity() > 2 * v_.size()) v_.shrink_to_fit();
    }

   private:
    static constexpr size_t kArity = 4;
    std::vector<HeapEntry> v_;
  };

  /// Drop cancelled entries off a tier's top, recycling their slots.
  void prune(EventHeap& tier) {
    while (!tier.empty() && slab_[tier.top().slot].cancelled) {
      free_slots_.push_back(tier.pop().slot);
    }
  }

  /// The tier whose top is the next live event (near before far: every
  /// near entry precedes every far one), or nullptr if none is pending.
  EventHeap* live_top() {
    prune(near_);
    if (!near_.empty()) return &near_;
    prune(far_);
    return far_.empty() ? nullptr : &far_;
  }

  /// Fire a popped live entry: advance the clock, retire its slot, run it.
  void dispatch(const HeapEntry& top) {
    Slot& s = slab_[top.slot];
    P2PLAB_ASSERT(top.when >= now_);
    now_ = top.when;
    Callback cb = std::move(s.cb);
    s.cb = nullptr;
    s.cancelled = true;  // slot is dead until recycled
    free_slots_.push_back(top.slot);
    --live_events_;
    ++dispatched_;
    metrics_.dispatched.inc();
    if (profile_dispatch_ &&
        (dispatched_ & (kDispatchSamplePeriod - 1)) == 0) {
      // Wall-clock one callback in kDispatchSamplePeriod: the histogram
      // stays representative while the two clock reads are amortized to
      // noise on the 10^8-event hot path.
      const auto t0 = std::chrono::steady_clock::now();
      cb();
      const auto t1 = std::chrono::steady_clock::now();
      metrics_.dispatch_ns.record(static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
              .count()));
    } else {
      cb();
    }
  }

  // Kernel instrumentation. Default handles write to no-op sinks, so an
  // unbound simulation pays two dead stores per event and no branches.
  struct KernelMetrics {
    metrics::Counter scheduled;
    metrics::Counter dispatched;
    metrics::Counter cancelled;
    metrics::Counter callback_heap_fallbacks;
    metrics::Gauge queue_depth;
    metrics::Gauge slab_capacity;
    metrics::Histogram dispatch_ns;
  };
  static constexpr std::uint64_t kDispatchSamplePeriod = 64;
  static constexpr size_t kCompactMinSlots = 1024;

  SimTime now_ = SimTime::zero();
  /// Near/far boundary: near_ holds exactly the entries before it.
  SimTime horizon_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  size_t live_events_ = 0;
  EventHeap near_;
  EventHeap far_;
  std::vector<Slot> slab_;
  std::vector<std::uint32_t> free_slots_;
  size_t last_compact_slots_ = 0;
  KernelMetrics metrics_;
  bool profile_dispatch_ = false;
};

/// A repeating task: reschedules itself every `period` until stopped.
/// Holds no ownership of the simulation; stop() before destroying it if the
/// simulation outlives this object.
class PeriodicTask {
 public:
  PeriodicTask() = default;
  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  /// Start firing `cb` every `period`, first at now+`initial_delay`.
  void start(Simulation& sim, Duration period, Duration initial_delay,
             Simulation::Callback cb) {
    P2PLAB_ASSERT(period > Duration::zero());
    stop();
    sim_ = &sim;
    period_ = period;
    cb_ = std::move(cb);
    arm(initial_delay);
  }

  void stop() {
    if (sim_ != nullptr) sim_->cancel(pending_);
    pending_ = EventId{};
    sim_ = nullptr;
  }

  bool running() const { return sim_ != nullptr; }

  ~PeriodicTask() { stop(); }

 private:
  void arm(Duration delay) {
    pending_ = sim_->schedule_after(delay, [this] {
      // Re-arm first so cb_ may call stop() to end the cycle.
      arm(period_);
      cb_();
    });
  }

  Simulation* sim_ = nullptr;
  Duration period_ = Duration::zero();
  EventId pending_;
  Simulation::Callback cb_;
};

}  // namespace p2plab::sim
