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

// Property: under random interleavings of schedule_at, cancel,
// open_window + run_before, compact and step — with callbacks that
// schedule and cancel while they are dispatched — the two-tier kernel
// dispatches exactly in the order of a reference std::map keyed on
// (when, seq), and agrees with it on pending_events() and
// next_event_time() after every operation.
class ReferenceQueueModel {
 public:
  ReferenceQueueModel(Simulation& sim, std::uint64_t seed)
      : sim_(sim), rng_(seed) {}

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
  SimTime horizon_ = SimTime::zero();
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
