#include "sim/simulation.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace p2plab::sim {
namespace {

TEST(Simulation, StartsAtZeroWithEmptyQueue) {
  Simulation sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, DispatchesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(SimTime::zero() + Duration::ms(20), [&] { order.push_back(2); });
  sim.schedule_at(SimTime::zero() + Duration::ms(10), [&] { order.push_back(1); });
  sim.schedule_at(SimTime::zero() + Duration::ms(30), [&] { order.push_back(3); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::ms(30));
}

TEST(Simulation, SameTimeEventsFifo) {
  Simulation sim;
  std::vector<int> order;
  const SimTime t = SimTime::zero() + Duration::ms(5);
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(t, [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulation, ScheduleAfterUsesCurrentTime) {
  Simulation sim;
  SimTime fired_at;
  sim.schedule_after(Duration::ms(10), [&] {
    sim.schedule_after(Duration::ms(5),
                       [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, SimTime::zero() + Duration::ms(15));
}

TEST(Simulation, ClockVisibleInsideCallback) {
  Simulation sim;
  sim.schedule_after(Duration::us(7), [&] {
    EXPECT_EQ(sim.now(), SimTime::zero() + Duration::us(7));
  });
  sim.run();
}

TEST(Simulation, CancelPreventsDispatch) {
  Simulation sim;
  bool fired = false;
  const EventId id = sim.schedule_after(Duration::ms(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulation, CancelIsIdempotentAndSafeOnInvalid) {
  Simulation sim;
  const EventId id = sim.schedule_after(Duration::ms(1), [] {});
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(EventId{}));
  sim.run();
}

TEST(Simulation, CancelAfterFireReturnsFalse) {
  Simulation sim;
  const EventId id = sim.schedule_after(Duration::ms(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulation, PendingEventCountTracksCancels) {
  Simulation sim;
  const EventId a = sim.schedule_after(Duration::ms(1), [] {});
  sim.schedule_after(Duration::ms(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(Duration::ms(10), [&] { ++fired; });
  sim.schedule_after(Duration::ms(20), [&] { ++fired; });
  sim.schedule_after(Duration::ms(30), [&] { ++fired; });
  sim.run_until(SimTime::zero() + Duration::ms(20));
  EXPECT_EQ(fired, 2);  // events at exactly the deadline run
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::ms(20));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulation, RunUntilAdvancesClockWhenIdle) {
  Simulation sim;
  sim.run_until(SimTime::zero() + Duration::sec(5));
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::sec(5));
}

TEST(Simulation, EventsScheduledDuringRunAreDispatched) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_after(Duration::ms(1), recurse);
  };
  sim.schedule_after(Duration::ms(1), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), SimTime::zero() + Duration::ms(5));
}

TEST(Simulation, DispatchedEventsCounter) {
  Simulation sim;
  for (int i = 0; i < 7; ++i) sim.schedule_after(Duration::ms(i + 1), [] {});
  sim.run();
  EXPECT_EQ(sim.dispatched_events(), 7u);
}

// Property: random schedule order still dispatches in nondecreasing time.
TEST(Simulation, RandomScheduleDispatchesMonotonically) {
  Simulation sim;
  Rng rng(99);
  std::vector<SimTime> dispatch_times;
  for (int i = 0; i < 2000; ++i) {
    const auto when =
        SimTime::zero() + Duration::us(static_cast<std::int64_t>(rng.uniform(100000)));
    sim.schedule_at(when, [&, when] {
      EXPECT_EQ(sim.now(), when);
      dispatch_times.push_back(sim.now());
    });
  }
  sim.run();
  ASSERT_EQ(dispatch_times.size(), 2000u);
  for (size_t i = 1; i < dispatch_times.size(); ++i) {
    EXPECT_LE(dispatch_times[i - 1], dispatch_times[i]);
  }
}

// A stale EventId whose slot has been recycled by a newer event must not
// cancel the newer event (the classic ABA hazard of slot reuse; the seq
// stamp disambiguates).
TEST(Simulation, CancelOfRecycledSlotIsAbaSafe) {
  Simulation sim;
  bool a_fired = false;
  bool b_fired = false;
  const EventId a = sim.schedule_after(Duration::ms(1), [&] { a_fired = true; });
  sim.run();  // a fires; its slot returns to the free list
  EXPECT_TRUE(a_fired);
  ASSERT_EQ(sim.slab_size(), 1u);  // b below must recycle a's slot
  sim.schedule_after(Duration::ms(1), [&] { b_fired = true; });
  EXPECT_FALSE(sim.cancel(a));  // stale id: same slot, older seq
  sim.run();
  EXPECT_TRUE(b_fired);
}

TEST(Simulation, CancelOfCancelledThenRecycledSlotIsAbaSafe) {
  Simulation sim;
  const EventId a = sim.schedule_after(Duration::ms(1), [] {});
  EXPECT_TRUE(sim.cancel(a));
  sim.run();  // prunes a's heap entry, freeing the slot
  int fired = 0;
  sim.schedule_after(Duration::ms(1), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(a));  // must not hit the recycled slot
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, CompactShrinksSlabAndPreservesDispatch) {
  Simulation sim;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 5000; ++i) {
    ids.push_back(sim.schedule_after(Duration::ms(1000 + i),
                                     [&order, i] { order.push_back(i); }));
  }
  // A burst that ended: cancel the long tail, keep a few early events.
  for (int i = 10; i < 5000; ++i) sim.cancel(ids[static_cast<size_t>(i)]);
  const size_t slots_before = sim.slab_size();
  sim.maybe_compact();
  EXPECT_LT(sim.slab_size(), slots_before);
  EXPECT_EQ(sim.pending_events(), 10u);
  // Stale ids stay invalid after the shrink; live ones stay cancellable.
  EXPECT_FALSE(sim.cancel(ids[20]));
  EXPECT_TRUE(sim.cancel(ids[5]));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 6, 7, 8, 9}));
}

TEST(Simulation, CompactKeepsSchedulingUsable) {
  Simulation sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 2000; ++i) {
    ids.push_back(sim.schedule_after(Duration::ms(i + 1), [] {}));
  }
  for (const EventId id : ids) sim.cancel(id);
  sim.compact();
  EXPECT_EQ(sim.slab_size(), 0u);
  int fired = 0;
  sim.schedule_after(Duration::ms(1), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
}

// Two-tier queue: an entry scheduled into the far tier before the horizon
// passes its time, and one scheduled at the same time into the near tier
// after, still dispatch in scheduling order.
TEST(Simulation, CrossTierTieKeepsSchedulingOrder) {
  Simulation sim;
  std::vector<int> order;
  const SimTime t = SimTime::zero() + Duration::ms(5);
  sim.open_window(SimTime::zero() + Duration::ms(1));
  sim.schedule_at(t, [&] { order.push_back(1); });  // far: t >= horizon
  sim.open_window(SimTime::zero() + Duration::ms(10));
  sim.schedule_at(t, [&] { order.push_back(2); });  // near: t < horizon
  sim.open_window(t);  // a lower horizon is ignored
  sim.schedule_at(t, [&] { order.push_back(3); });
  EXPECT_EQ(sim.next_event_time(), t);
  sim.run_before(SimTime::zero() + Duration::ms(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), t);
}

// One instant, three structures: A lands in the overflow heap (beyond the
// calendar's span when scheduled), B and a cancelled C in a calendar slot
// once the horizon has moved the span over the instant, and D in the near
// run after the window holding the instant opens. Dispatch stays in
// scheduling order.
TEST(Simulation, TieAcrossNearRunCalendarAndOverflowKeepsSchedulingOrder) {
  Simulation sim;
  sim.set_lookahead(Duration::us(10));  // a 2.56 ms calendar span
  std::vector<char> order;
  const SimTime t = SimTime::zero() + Duration::ms(5);
  sim.schedule_at(t, [&] { order.push_back('A'); });  // overflow
  sim.open_window(SimTime::zero() + Duration::ms(3));
  sim.schedule_at(t, [&] { order.push_back('B'); });  // calendar slot
  const EventId c = sim.schedule_at(t, [&] { order.push_back('C'); });
  EXPECT_TRUE(sim.cancel(c));
  EXPECT_EQ(sim.next_event_time(), t);
  const SimTime end = t + Duration::us(10);  // the slot holding t
  sim.open_window(end);
  sim.schedule_at(t, [&] { order.push_back('D'); });  // near run
  EXPECT_EQ(sim.next_event_time(), t);
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.run_before(end);
  EXPECT_EQ(order, (std::vector<char>{'A', 'B', 'D'}));
  EXPECT_EQ(sim.now(), t);
}

// Property: under random interleavings of schedule_at, cancel,
// open_window + run_before, compact and step — with callbacks that
// schedule and cancel while they are dispatched — the kernel dispatches
// exactly in the order of a reference std::map keyed on (when, seq), and
// agrees with it on pending_events() and next_event_time() after every
// operation.
class ReferenceQueueModel {
 public:
  ReferenceQueueModel(Simulation& sim, std::uint64_t seed)
      : sim_(sim), rng_(seed) {}

  // Lay the kernel's calendar on a `grid` and add protocol timers long
  // enough to overshoot its span, as the engine's shards see them.
  void set_grid(Duration grid) {
    grid_ = grid;
    sim_.set_lookahead(grid);
  }

  // Pick a time at or after now on a coarse 1 us grid, so ties are
  // common: with a pending event, with the horizon, or a short or long
  // delay (a window's traffic versus a protocol timer).
  SimTime pick_when() {
    const SimTime now = sim_.now();
    if (!ref_.empty() && rng_.chance(0.2)) {
      auto it = ref_.begin();
      std::advance(it, static_cast<long>(rng_.uniform(ref_.size())));
      return it->first.first;
    }
    if (horizon_ >= now && rng_.chance(0.15)) return horizon_;
    if (grid_ > Duration::zero() && rng_.chance(0.05)) {
      return now + grid_ * rng_.uniform_int(200, 600);
    }
    const std::int64_t us = rng_.chance(0.7)
                                ? rng_.uniform_int(0, 40)
                                : rng_.uniform_int(100, 3'000);
    return now + Duration::us(us);
  }

  void schedule() {
    const SimTime when = pick_when();
    const std::uint64_t seq = ++seq_;
    // The action this event takes when it fires is drawn now, so a run is
    // a pure function of the seed.
    const std::uint64_t action = rng_.uniform(6);
    const EventId id = sim_.schedule_at(when, [this, when, seq, action] {
      fire(when, seq, action);
    });
    ref_.emplace(Key{when, seq}, id);
    issued_.push_back({Key{when, seq}, id});
  }

  // Cancel a random id ever issued: live, fired or already cancelled.
  void cancel() {
    if (issued_.empty()) return;
    const auto& [key, id] = issued_[rng_.uniform(issued_.size())];
    const bool live = ref_.erase(key) > 0;
    EXPECT_EQ(sim_.cancel(id), live);
  }

  // One engine window: raise the horizon, schedule the window's ingress,
  // then run up to an end at, before or past the horizon.
  void window() {
    const SimTime now = sim_.now();
    const SimTime h = now + Duration::us(rng_.uniform_int(0, 50));
    sim_.open_window(h);
    horizon_ = std::max(horizon_, h);
    for (std::uint64_t n = rng_.uniform(4); n > 0; --n) schedule();
    const SimTime end = h + Duration::us(rng_.uniform_int(-10, 10));
    sim_.run_before(end);
    EXPECT_TRUE(ref_.empty() || ref_.begin()->first.first >= end);
    if (rng_.chance(0.5) && end > sim_.now()) sim_.advance_to(end);
  }

  // A lull: every event due within the calendar's span from now is
  // cancelled (a burst that ended), so the next window jumps past it.
  void lull() {
    const SimTime until = sim_.now() + grid_ * 256;
    for (auto it = ref_.begin();
         it != ref_.end() && it->first.first < until;) {
      EXPECT_TRUE(sim_.cancel(it->second));
      it = ref_.erase(it);
    }
  }

  // One engine window on the grid: the window [wL, (w + 1)L) holding the
  // next event, fast-forwarding over empty slots — past the calendar's
  // span, too — and sometimes clamped to a deadline off the grid. Open it,
  // schedule its ingress, run it, and move the clock to its end.
  void grid_window() {
    const std::int64_t l = grid_.count_ns();
    const SimTime start = sim_.next_event_time().value_or(sim_.now());
    const SimTime cell_end = SimTime::from_ns((start.count_ns() / l + 1) * l);
    SimTime end = cell_end;
    if (rng_.chance(0.2)) {
      end = std::min(end, start + Duration::ns(rng_.uniform_int(1, l - 1)));
      if (end < cell_end) ++clamped_;
    }
    if (start - sim_.now() > grid_ * 256) ++jumps_past_span_;
    sim_.open_window(end);
    horizon_ = std::max(horizon_, end);
    for (std::uint64_t n = rng_.uniform(4); n > 0; --n) schedule();
    sim_.run_before(end);
    EXPECT_TRUE(ref_.empty() || ref_.begin()->first.first >= end);
    sim_.advance_to(end);
  }

  void step() {
    const std::uint64_t before = fired_;
    const bool pending = !ref_.empty();
    EXPECT_EQ(sim_.step(), pending);
    EXPECT_EQ(fired_ - before, pending ? 1u : 0u);
  }

  void check() {
    ASSERT_EQ(sim_.pending_events(), ref_.size());
    const std::optional<SimTime> next = sim_.next_event_time();
    if (ref_.empty()) {
      EXPECT_FALSE(next.has_value());
    } else {
      ASSERT_TRUE(next.has_value());
      EXPECT_EQ(*next, ref_.begin()->first.first);
    }
  }

  std::uint64_t fired() const { return fired_; }
  std::uint64_t clamped() const { return clamped_; }
  std::uint64_t jumps_past_span() const { return jumps_past_span_; }

 private:
  using Key = std::pair<SimTime, std::uint64_t>;

  void fire(SimTime when, std::uint64_t seq, std::uint64_t action) {
    // The dispatched event must be the reference's minimum.
    ASSERT_FALSE(ref_.empty());
    ASSERT_EQ(ref_.begin()->first, (Key{when, seq})) << "dispatch order";
    EXPECT_EQ(sim_.now(), when);
    ref_.erase(ref_.begin());
    ++fired_;
    if (action == 0 || action == 1) schedule();  // reentrant schedule
    if (action == 2) cancel();                   // reentrant cancel
  }

  Simulation& sim_;
  Rng rng_;
  std::map<Key, EventId> ref_;
  std::vector<std::pair<Key, EventId>> issued_;
  std::uint64_t seq_ = 0;
  std::uint64_t fired_ = 0;
  std::uint64_t clamped_ = 0;
  std::uint64_t jumps_past_span_ = 0;
  SimTime horizon_ = SimTime::zero();
  Duration grid_ = Duration::zero();
};

TEST(Simulation, TwoTierQueueMatchesReferenceOrder) {
  constexpr std::uint64_t kSeeds = 48;
  std::uint64_t total_fired = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    Simulation sim;
    ReferenceQueueModel model(sim, seed);
    Rng ops(seed * 7919);
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t op = ops.uniform(20);
      if (op < 9) {
        model.schedule();
      } else if (op < 12) {
        model.cancel();
      } else if (op < 16) {
        model.window();
      } else if (op < 17) {
        sim.compact();
      } else {
        model.step();
      }
      model.check();
      if (testing::Test::HasFatalFailure()) return;
    }
    sim.run();
    model.check();
    total_fired += model.fired();
  }
  EXPECT_GT(total_fired, kSeeds * 100);
}

// The same property on a lookahead grid, driven the way the engine drives
// a shard: windows on the grid (open_window, ingress, run_before,
// advance_to), fast-forwards past the calendar's span after a lull,
// horizons clamped to a deadline off the grid, compact() mid-run, and
// reentrant schedule and cancel in the callbacks.
TEST(Simulation, LookaheadGridQueueMatchesReferenceOrder) {
  constexpr std::uint64_t kSeeds = 48;
  std::uint64_t total_fired = 0;
  std::uint64_t total_clamped = 0;
  std::uint64_t total_jumps = 0;
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    SCOPED_TRACE(seed);
    Simulation sim;
    ReferenceQueueModel model(sim, seed);
    model.set_grid(Duration::us(2));  // a 512 us calendar span
    Rng ops(seed * 104729);
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t op = ops.uniform(20);
      if (op < 8) {
        model.schedule();
      } else if (op < 11) {
        model.cancel();
      } else if (op < 18) {
        model.grid_window();
      } else if (op < 19) {
        model.lull();
      } else {
        sim.compact();
      }
      model.check();
      if (testing::Test::HasFatalFailure()) return;
    }
    sim.run();
    model.check();
    total_fired += model.fired();
    total_clamped += model.clamped();
    total_jumps += model.jumps_past_span();
  }
  EXPECT_GT(total_fired, kSeeds * 100);
  // The cases the grid adds were actually exercised.
  EXPECT_GT(total_clamped, kSeeds);
  EXPECT_GT(total_jumps, kSeeds);
}

TEST(PeriodicTask, FiresOnCadence) {
  Simulation sim;
  PeriodicTask task;
  std::vector<SimTime> fires;
  task.start(sim, Duration::sec(10), Duration::sec(1),
             [&] { fires.push_back(sim.now()); });
  sim.run_until(SimTime::zero() + Duration::sec(31));
  ASSERT_EQ(fires.size(), 4u);  // t = 1, 11, 21, 31
  EXPECT_EQ(fires[0], SimTime::zero() + Duration::sec(1));
  EXPECT_EQ(fires[3], SimTime::zero() + Duration::sec(31));
  task.stop();
  EXPECT_FALSE(task.running());
}

TEST(PeriodicTask, StopFromInsideCallback) {
  Simulation sim;
  PeriodicTask task;
  int fires = 0;
  task.start(sim, Duration::sec(1), Duration::sec(1), [&] {
    if (++fires == 3) task.stop();
  });
  sim.run();
  EXPECT_EQ(fires, 3);
}

TEST(PeriodicTask, RestartReplacesSchedule) {
  Simulation sim;
  PeriodicTask task;
  int first = 0;
  int second = 0;
  task.start(sim, Duration::sec(1), Duration::zero(), [&] { ++first; });
  task.start(sim, Duration::sec(1), Duration::zero(), [&] { ++second; });
  sim.run_until(SimTime::zero() + Duration::millis(2500));
  task.stop();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 3);  // t = 0, 1, 2
}

}  // namespace
}  // namespace p2plab::sim
