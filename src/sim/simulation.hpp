// Discrete-event simulation kernel.
//
// A Simulation owns the virtual clock and an event queue shaped after the
// parallel engine's window schedule. Events are closures scheduled at
// absolute or relative times; ties dispatch in scheduling order (FIFO),
// which the rest of the platform relies on for determinism.
//
// Storage is split: callbacks live in a slab (stable slots, recycled via a
// free list) and the queue orders compact 24-byte {when, seq, slot}
// entries. That makes cancel() a true O(1) slab store (no scan, no queue
// surgery — the entry is dropped lazily when the queue reaches it) and
// keeps every move of an entry small.
//
// The queue is cut at a *horizon*. Entries before it form the near run: a
// vector sorted on (when, seq) that dispatch consumes from the front.
// Entries at or after it are far, and live on a grid of slots one
// lookahead L wide — the engine's window length, handed over once by
// set_lookahead() (a bare kernel uses kDefaultSlotWidth):
//   * a calendar of kSlots slots covers the next kSlots * L of time; a far
//     schedule inside that span is an O(1) push onto its slot's chain. All
//     slots share one pool of cells chained by index, an occupancy bitmap
//     finds the first non-empty slot, and a per-slot min cell answers
//     next_event_time() without a scan;
//   * a small overflow 4-ary heap keeps the timers beyond the span.
// open_window(end) raises the horizon to `end`: it moves the slots it
// passes and the overflow entries due before `end` into the near run and
// sorts them there once. The parallel engine opens each BSP window this way
// before merging the window's ingress; merged arrivals and in-window
// schedules then insert into the run at their sorted place, shifting
// whichever side of it is shorter. Every near entry precedes every far
// one, so the next event is the near front when the run is non-empty, else
// the far minimum; and an entry's seq is fixed when it is scheduled, not
// when it changes tier — so the dispatch order is exactly (when, seq), ties
// across tiers included. Driven through step()/run()/run_until(), the
// kernel opens the slot of the next event whenever the near run is empty:
// the same structure serves every driver.
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
#include <array>
#include <bit>
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

  /// Slot width of a kernel no engine drives. Any width keeps the order;
  /// this one keeps a busy packet path's slots at a few dozen events.
  static constexpr Duration kDefaultSlotWidth = Duration::us(20);

  Simulation() { slot_head_.fill(kNil); }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Lay the far tier on the engine's window grid: slots `lookahead` wide
  /// from time zero, so each window the engine opens is one slot. Pending
  /// far entries are re-filed; dispatch order is untouched.
  void set_lookahead(Duration lookahead) {
    P2PLAB_ASSERT_MSG(lookahead > Duration::zero(),
                      "slot width must be positive");
    std::vector<Entry> far = take_calendar();
    width_ns_ = lookahead.count_ns();
    cal_lo_ = horizon_.count_ns() / width_ns_;
    span_end_ = cell_start(cal_lo_ + kSlots);
    for (const Entry& e : far) far_push(e);
  }

  /// Schedule `cb` at absolute time `when` (>= now). Taken by rvalue
  /// reference: the closure is relocated once, into its slab slot.
  EventId schedule_at(SimTime when, Callback&& cb) {
    P2PLAB_ASSERT_MSG(when >= now_, "cannot schedule into the past");
    P2PLAB_ASSERT_MSG(when < SimTime::max(), "SimTime::max() is 'never'");
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
    const Entry e{when, seq, slot};
    if (when < horizon_) {
      near_insert(e);
    } else {
      far_push(e);
    }
    ++live_events_;
    metrics_.scheduled.inc();
    return EventId{seq, slot};
  }

  /// Schedule `cb` after a relative delay (>= 0).
  EventId schedule_after(Duration delay, Callback&& cb) {
    return schedule_at(now_ + delay, std::move(cb));
  }

  /// Cancel a pending event in O(1): the slab slot is flagged and the
  /// queue entry is discarded when the queue reaches it. Returns true if
  /// the event was still pending. Safe to call with an invalid/fired/
  /// already-cancelled id (slot recycling is disambiguated by the sequence
  /// number).
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
  /// the queue is empty. Opens nothing: with the near run empty the answer
  /// is the far minimum, read off the first occupied slot's min cell.
  std::optional<SimTime> next_event_time() {
    if (const Entry* e = near_front()) return e->when;
    const SimTime t = far_min();
    if (t == SimTime::max()) return std::nullopt;
    return t;
  }

  /// Raise the horizon to `end`: the far entries before it move into the
  /// near run, sorted once. The parallel engine calls this with each
  /// window's end before merging the window's ingress. Monotone — a
  /// horizon at or below the current one is ignored — and invisible to
  /// dispatch order.
  void open_window(SimTime end) {
    if (end <= horizon_) return;
    horizon_ = end;
    // The moved entries were far, so they follow every entry still in the
    // run: appending them keeps the run sorted once they are sorted.
    if (near_head_ > 0) {
      near_.erase(near_.begin(),
                  near_.begin() + static_cast<std::ptrdiff_t>(near_head_));
      near_head_ = 0;
    }
    const std::size_t first = near_.size();
    const std::int64_t end_cell = end.count_ns() / width_ns_;
    const std::int64_t passed = end_cell - cal_lo_;  // whole slots before end
    const std::uint32_t whole =
        passed >= kSlots ? kSlots : static_cast<std::uint32_t>(passed);
    for (std::uint32_t off = first_occupied(0); off < whole;
         off = first_occupied(off)) {
      take_slot(ring_pos(off), SimTime::max());
    }
    if (whole < kSlots && end != cell_start(end_cell)) {
      // A horizon off the grid (a window clamped to a deadline) splits the
      // slot it falls in.
      take_slot(ring_pos(whole), end);
    }
    cal_lo_ = end_cell;
    span_end_ = cell_start(cal_lo_ + kSlots);
    while (!overflow_.empty() && overflow_.top().when < end) {
      const Entry e = overflow_.pop();
      if (slab_[e.slot].cancelled) {
        free_slots_.push_back(e.slot);
      } else {
        near_.push_back(e);
      }
    }
    if (near_.size() - first > 1) {
      std::sort(near_.begin() + static_cast<std::ptrdiff_t>(first),
                near_.end(),
                [](const Entry& a, const Entry& b) { return a.before(b); });
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
    if (next_live(SimTime::max()) == nullptr) return false;
    dispatch(near_[near_head_++]);
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
    const SimTime limit = deadline == SimTime::max()
                              ? deadline
                              : deadline + Duration::ns(1);
    for (const Entry* e; (e = next_live(limit)) != nullptr &&
                         e->when <= deadline;) {
      dispatch(near_[near_head_++]);
    }
    metrics_.queue_depth.set(static_cast<double>(live_events_));
    if (now_ < deadline) now_ = deadline;
  }

  /// Run events strictly before `end`; the clock is NOT advanced to `end`
  /// (the parallel engine owns window-boundary clock advancement). One
  /// fused loop over the near run's front, with the queue-depth gauge
  /// refreshed once on the way out.
  void run_before(SimTime end) {
    for (const Entry* e;
         (e = next_live(end)) != nullptr && e->when < end;) {
      dispatch(near_[near_head_++]);
    }
    metrics_.queue_depth.set(static_cast<double>(live_events_));
  }

  /// Slots currently allocated in the slab (capacity watermark; the gauge
  /// sim.slab.capacity tracks the backing vector's capacity).
  size_t slab_size() const { return slab_.size(); }

  /// Shrink kernel storage after a burst: recycle every cancelled queue
  /// entry, pop dead trailing slab slots, and release excess vector
  /// capacity. Dispatch order is untouched — every live entry keeps its
  /// place in the (when, seq) order — so this is safe at any quiescent
  /// point; the parallel engine calls maybe_compact() at window
  /// boundaries, where each shard's kernel is between events by
  /// construction.
  void compact() {
    near_.erase(near_.begin(),
                near_.begin() + static_cast<std::ptrdiff_t>(near_head_));
    near_head_ = 0;
    std::erase_if(near_, [this](const Entry& e) {
      if (!slab_[e.slot].cancelled) return false;
      free_slots_.push_back(e.slot);
      return true;
    });
    if (near_.capacity() > 2 * near_.size()) near_.shrink_to_fit();
    // Re-file the live calendar entries into a fresh, tight pool.
    for (const Entry& e : take_calendar()) far_push(e);
    overflow_.compact(slab_, free_slots_);
    // Only trailing dead slots can be returned; interior ones must stay,
    // since live queue entries index into the slab.
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

  /// Compact queue entry; ordering key only, so moving one stays cheap.
  struct Entry {
    SimTime when;
    std::uint64_t seq = 0;  // tie-break: FIFO among same-time events
    std::uint32_t slot = 0;
    std::uint32_t next = 0;  // calendar chain link (pool cells only)

    bool before(const Entry& other) const {
      if (when != other.when) return when < other.when;
      return seq < other.seq;
    }
  };

  /// The overflow tier: a 4-ary min-heap on (when, seq) — half the depth
  /// of a binary heap and fewer cache misses.
  class EventHeap {
   public:
    bool empty() const { return v_.empty(); }
    const Entry& top() const { return v_.front(); }

    void push(Entry e) {
      v_.push_back(e);
      size_t i = v_.size() - 1;
      while (i > 0) {
        const size_t parent = (i - 1) / kArity;
        if (!v_[i].before(v_[parent])) break;
        std::swap(v_[i], v_[parent]);
        i = parent;
      }
    }

    Entry pop() {
      P2PLAB_ASSERT(!v_.empty());
      const Entry top = v_.front();
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
      std::erase_if(v_, [&](const Entry& e) {
        if (!slab[e.slot].cancelled) return false;
        free_slots.push_back(e.slot);
        return true;
      });
      std::sort(v_.begin(), v_.end(), [](const Entry& a, const Entry& b) {
        return a.before(b);
      });
      if (v_.capacity() > 2 * v_.size()) v_.shrink_to_fit();
    }

   private:
    static constexpr size_t kArity = 4;
    std::vector<Entry> v_;
  };

  static constexpr std::uint32_t kSlots = 256;  // power of two: ring index
  static constexpr std::uint32_t kMask = kSlots - 1;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Start of grid cell `cell`, saturating at SimTime::max().
  SimTime cell_start(std::int64_t cell) const {
    if (cell > INT64_MAX / width_ns_) return SimTime::max();
    return SimTime::from_ns(cell * width_ns_);
  }

  /// Ring position of the calendar slot `off` slots after the first.
  std::uint32_t ring_pos(std::uint32_t off) const {
    return (static_cast<std::uint32_t>(cal_lo_) + off) & kMask;
  }

  /// Offset of the first occupied slot at or after offset `from`; any
  /// value >= kSlots means none (a word's bits past the ring's wrap point
  /// read as offsets >= kSlots).
  std::uint32_t first_occupied(std::uint32_t from) const {
    for (std::uint32_t off = from; off < kSlots;) {
      const std::uint32_t pos = ring_pos(off);
      const std::uint64_t bits = occupied_[pos >> 6] >> (pos & 63);
      if (bits != 0) {
        return off + static_cast<std::uint32_t>(std::countr_zero(bits));
      }
      off += 64 - (pos & 63);
    }
    return kSlots;
  }

  /// File a far entry: an O(1) push onto its calendar slot's chain, or the
  /// overflow heap when it lies beyond the calendar's span.
  void far_push(const Entry& e) {
    if (e.when >= span_end_) {
      overflow_.push(e);
      return;
    }
    const std::uint32_t pos =
        static_cast<std::uint32_t>(e.when.count_ns() / width_ns_) & kMask;
    std::uint32_t cell = pool_free_;
    if (cell == kNil) {
      cell = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
    } else {
      pool_free_ = pool_[cell].next;
    }
    Entry& c = pool_[cell];
    c = e;
    c.next = slot_head_[pos];
    if (c.next == kNil) {
      occupied_[pos >> 6] |= std::uint64_t{1} << (pos & 63);
      slot_min_[pos] = cell;
    } else if (e.before(pool_[slot_min_[pos]])) {
      slot_min_[pos] = cell;
    }
    slot_head_[pos] = cell;
  }

  /// Move the live entries of slot `pos` due before `end` to the near run
  /// (unsorted) and recycle its cancelled ones; the rest stay, with the
  /// slot's min cell recomputed.
  void take_slot(std::uint32_t pos, SimTime end) {
    std::uint32_t kept = kNil;
    std::uint32_t min = kNil;
    for (std::uint32_t cell = slot_head_[pos]; cell != kNil;) {
      Entry& c = pool_[cell];
      const std::uint32_t next = c.next;
      if (slab_[c.slot].cancelled || c.when < end) {
        if (slab_[c.slot].cancelled) {
          free_slots_.push_back(c.slot);
        } else {
          near_.push_back(c);
        }
        c.next = pool_free_;
        pool_free_ = cell;
      } else {
        c.next = kept;
        kept = cell;
        if (min == kNil || c.before(pool_[min])) min = cell;
      }
      cell = next;
    }
    slot_head_[pos] = kept;
    slot_min_[pos] = min;
    if (kept == kNil) occupied_[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
  }

  /// Every calendar entry, live ones returned and cancelled ones recycled;
  /// leaves the calendar empty with its pool released if oversized.
  std::vector<Entry> take_calendar() {
    std::vector<Entry> live;
    for (std::uint32_t off = first_occupied(0); off < kSlots;
         off = first_occupied(off)) {
      const std::uint32_t pos = ring_pos(off);
      for (std::uint32_t cell = slot_head_[pos]; cell != kNil;
           cell = pool_[cell].next) {
        const Entry& c = pool_[cell];
        if (slab_[c.slot].cancelled) {
          free_slots_.push_back(c.slot);
        } else {
          live.push_back(c);
        }
      }
      slot_head_[pos] = kNil;
      occupied_[pos >> 6] &= ~(std::uint64_t{1} << (pos & 63));
    }
    pool_.clear();
    pool_free_ = kNil;
    if (pool_.capacity() > 2 * live.size()) pool_.shrink_to_fit();
    return live;
  }

  /// The earliest live far entry's time (SimTime::max() if none). Drops
  /// the cancelled entries it has to look past.
  SimTime far_min() {
    SimTime t = SimTime::max();
    for (std::uint32_t off = first_occupied(0); off < kSlots;
         off = first_occupied(off)) {
      const std::uint32_t pos = ring_pos(off);
      if (slab_[pool_[slot_min_[pos]].slot].cancelled) {
        take_slot(pos, SimTime::zero());  // recycle the dead, re-find min
        if (slot_head_[pos] == kNil) continue;
      }
      t = pool_[slot_min_[pos]].when;
      break;
    }
    while (!overflow_.empty() && slab_[overflow_.top().slot].cancelled) {
      free_slots_.push_back(overflow_.pop().slot);
    }
    if (!overflow_.empty() && overflow_.top().when < t) {
      t = overflow_.top().when;
    }
    return t;
  }

  /// The near run's first live entry, recycling cancelled ones on the way;
  /// nullptr (with the run reset) when it is empty.
  const Entry* near_front() {
    while (near_head_ < near_.size()) {
      const Entry& e = near_[near_head_];
      if (!slab_[e.slot].cancelled) return &e;
      free_slots_.push_back(e.slot);
      ++near_head_;
    }
    near_.clear();
    near_head_ = 0;
    return nullptr;
  }

  /// The next live entry, at the near run's front. With the run empty it
  /// opens the slot of the far minimum, if that lies before `limit`;
  /// nullptr when nothing is pending before `limit`.
  const Entry* next_live(SimTime limit) {
    for (;;) {
      if (const Entry* e = near_front()) return e;
      const SimTime t = far_min();
      if (t >= limit) return nullptr;
      open_window(cell_start(t.count_ns() / width_ns_ + 1));
    }
  }

  /// Insert a fresh schedule into the near run. Its seq is the newest, so
  /// it goes after every entry at its time; the shorter side of the run
  /// shifts, into the consumed prefix when the front side is shorter.
  void near_insert(const Entry& e) {
    const auto first = near_.begin() + static_cast<std::ptrdiff_t>(near_head_);
    const auto at = std::upper_bound(
        first, near_.end(), e.when,
        [](SimTime t, const Entry& x) { return t < x.when; });
    if (near_head_ > 0 && at - first <= near_.end() - at) {
      std::move(first, at, first - 1);
      --near_head_;
      *(at - 1) = e;
    } else {
      near_.insert(at, e);
    }
  }

  /// Fire a popped live entry: advance the clock, retire its slot, run it.
  void dispatch(const Entry top) {
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
  /// Near/far boundary: the near run holds exactly the entries before it.
  SimTime horizon_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  size_t live_events_ = 0;
  /// Near run: sorted on (when, seq); [near_head_, size) is pending.
  std::vector<Entry> near_;
  size_t near_head_ = 0;
  // Calendar: slot `cell % kSlots` files the far entries of grid cell
  // `cell` (time [cell, cell + 1) * width) for cells in
  // [cal_lo_, cal_lo_ + kSlots), which ends at span_end_.
  std::int64_t width_ns_ = kDefaultSlotWidth.count_ns();
  std::int64_t cal_lo_ = 0;
  SimTime span_end_ = cell_start(kSlots);
  std::vector<Entry> pool_;  // cells of every slot's chain
  std::uint32_t pool_free_ = kNil;
  std::array<std::uint32_t, kSlots> slot_head_;
  std::array<std::uint32_t, kSlots> slot_min_{};
  std::array<std::uint64_t, kSlots / 64> occupied_{};
  EventHeap overflow_;
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
