#include "ipfw/pipe.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "metrics/registry.hpp"

namespace p2plab::ipfw {
namespace {

class PipeTest : public ::testing::Test {
 protected:
  metrics::Registry reg;
  sim::Simulation sim;
  Rng rng{1};

  std::uint64_t count(const char* name) {
    return reg.counter(std::string("ipfw.pipe.") + name).value();
  }
  /// Every loss cause together: random, burst, link down, queue overflow.
  std::uint64_t drops() {
    return count("drops_loss") + count("drops_burst") + count("drops_down") +
           count("drops_overflow");
  }

  Pipe::Segment seg(DataSize size, FlowId flow, std::vector<SimTime>* exits) {
    return Pipe::Segment{
        .size = size, .flow = flow,
        .on_exit = [this, exits] { exits->push_back(sim.now()); }};
  }
};

TEST_F(PipeTest, PureDelayElement) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::unlimited(),
                  .delay = Duration::ms(400)},
            rng);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 2u);
  // No serialization: both exit at exactly the delay.
  EXPECT_EQ(exits[0], SimTime::zero() + Duration::ms(400));
  EXPECT_EQ(exits[1], SimTime::zero() + Duration::ms(400));
}

TEST_F(PipeTest, BandwidthSerializes) {
  // 128 kb/s uplink: a 16 KiB block takes 1.024 s on the wire.
  Pipe pipe(sim, {.bandwidth = Bandwidth::kbps(128)}, rng);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 2u);
  EXPECT_NEAR(exits[0].to_seconds(), 1.024, 1e-6);
  EXPECT_NEAR(exits[1].to_seconds(), 2.048, 1e-6);
}

TEST_F(PipeTest, BandwidthPlusDelay) {
  // The paper's DSL model: shaping then propagation delay.
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(2), .delay = Duration::ms(30)},
            rng);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_NEAR(exits[0].to_seconds(), 16384.0 * 8 / 2e6 + 0.030, 1e-6);
}

TEST_F(PipeTest, DrrSharesBandwidthAcrossFlows) {
  // Two flows, equal backlog: each should get ~half the link.
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(1),
                  .queue_limit = DataSize::mib(10)},
            rng);
  std::vector<SimTime> exits_a;
  std::vector<SimTime> exits_b;
  for (int i = 0; i < 20; ++i) {
    pipe.enqueue(seg(DataSize::kib(4), 1, &exits_a));
    pipe.enqueue(seg(DataSize::kib(4), 2, &exits_b));
  }
  sim.run();
  ASSERT_EQ(exits_a.size(), 20u);
  ASSERT_EQ(exits_b.size(), 20u);
  // Total: 160 KiB at 1 Mb/s = ~1.31 s. Each flow's last segment should
  // leave near the end (fair interleaving), not one flow first.
  const double total = 160.0 * 1024 * 8 / 1e6;
  EXPECT_NEAR(exits_a.back().to_seconds(), total, 0.1);
  EXPECT_NEAR(exits_b.back().to_seconds(), total, 0.1);
}

TEST_F(PipeTest, QueueOverflowDrops) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::kbps(64),
                  .queue_limit = DataSize::bytes(3000)},
            rng);
  pipe.bind_metrics(PipeMetrics::resolve(reg));
  int dropped = 0;
  std::vector<SimTime> exits;
  for (int i = 0; i < 10; ++i) {
    if (!pipe.enqueue(seg(DataSize::bytes(1500), 1, &exits))) ++dropped;
  }
  sim.run();
  // 1 in service + 2 queued fit; the rest drop.
  EXPECT_EQ(dropped, 7);
  EXPECT_EQ(exits.size(), 3u);
  EXPECT_EQ(count("drops_overflow"), 7u);
  EXPECT_EQ(drops(), 7u);
}

TEST_F(PipeTest, RandomLossDropsExpectedFraction) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::unlimited(), .loss_rate = 0.2}, rng);
  int delivered = 0;
  int dropped = 0;
  for (int i = 0; i < 5000; ++i) {
    const bool kept = pipe.enqueue(
        Pipe::Segment{.size = DataSize::bytes(100), .flow = 1,
                      .on_exit = [&delivered] { ++delivered; }});
    if (!kept) ++dropped;
  }
  sim.run();
  EXPECT_EQ(delivered + dropped, 5000);
  EXPECT_NEAR(static_cast<double>(dropped) / 5000.0, 0.2, 0.02);
}

TEST_F(PipeTest, StatsAccounting) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(1)}, rng);
  pipe.bind_metrics(PipeMetrics::resolve(reg));
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(1), 1, &exits));
  pipe.enqueue(seg(DataSize::kib(2), 1, &exits));
  sim.run();
  EXPECT_EQ(count("segments_in"), 2u);
  EXPECT_EQ(count("segments_out"), 2u);
  EXPECT_EQ(count("bytes_in"), 3u * 1024);
  EXPECT_EQ(count("bytes_out"), 3u * 1024);
  EXPECT_EQ(drops(), 0u);
  EXPECT_EQ(reg.value("ipfw.pipe.queue_bytes"), 2.0);  // one per arrival
}

TEST_F(PipeTest, ReconfigureChangesRate) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::kbps(128)}, rng);
  std::vector<SimTime> exits;
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_NEAR(exits[0].to_seconds(), 1.024, 1e-6);

  pipe.reconfigure({.bandwidth = Bandwidth::kbps(256)});
  pipe.enqueue(seg(DataSize::kib(16), 1, &exits));
  sim.run();
  ASSERT_EQ(exits.size(), 2u);
  EXPECT_NEAR((exits[1] - exits[0]).to_seconds(), 0.512, 1e-6);
}

TEST_F(PipeTest, ZeroDelayZeroBandwidthDeliversImmediately) {
  Pipe pipe(sim, {}, rng);
  bool delivered = false;
  pipe.enqueue(Pipe::Segment{.size = DataSize::bytes(64), .flow = 1,
                             .on_exit = [&] { delivered = true; }});
  EXPECT_TRUE(delivered);  // synchronous: no events needed
}

TEST_F(PipeTest, ManyFlowsAllComplete) {
  Pipe pipe(sim, {.bandwidth = Bandwidth::mbps(10),
                  .queue_limit = DataSize::mib(100)},
            rng);
  int exits = 0;
  for (FlowId f = 1; f <= 50; ++f) {
    for (int i = 0; i < 4; ++i) {
      pipe.enqueue(Pipe::Segment{.size = DataSize::kib(8), .flow = f,
                                 .on_exit = [&exits] { ++exits; }});
    }
  }
  sim.run();
  EXPECT_EQ(exits, 200);
}

TEST_F(PipeTest, DrrScheduleMatchesParent) {
  // Pins the DRR schedule: ring order (new flows at the tail, a top-up
  // rotates the head to the tail), the 4096-B quantum, the forfeited
  // deficit of a flow that drains, and a rate change mid-backlog. The
  // table was recorded from the map-and-list implementation this pipe
  // replaced. At 1 Mb/s 300 / 1500 / 4000 B take 2.4 / 12 / 32 ms.
  const PipeConfig slow{.bandwidth = Bandwidth::mbps(1),
                        .delay = Duration::ms(5),
                        .queue_limit = DataSize::kib(64)};
  PipeConfig fast = slow;
  fast.bandwidth = Bandwidth::mbps(2);
  Pipe pipe(sim, slow, rng);
  struct Exit {
    FlowId flow;
    int seq;
    std::int64_t ns;
    bool operator==(const Exit&) const = default;
  };
  std::vector<Exit> exits;
  std::map<FlowId, int> next_seq;
  auto send = [&](FlowId flow, std::uint64_t bytes, int n) {
    for (int i = 0; i < n; ++i) {
      const int seq = next_seq[flow]++;
      EXPECT_TRUE(pipe.enqueue(Pipe::Segment{
          .size = DataSize::bytes(bytes), .flow = flow,
          .on_exit = [this, &exits, flow, seq] {
            exits.push_back({flow, seq, sim.now().count_ns()});
          }}));
    }
  };
  send(3, 4000, 1);  // idle server: straight into service
  send(1, 300, 6);
  send(2, 1500, 4);
  send(3, 4000, 7);
  // Flow 1 drains at ~44 ms and returns while the server is busy.
  sim.schedule_at(SimTime::from_ns(50'000'000), [&] { send(1, 300, 3); });
  sim.schedule_at(SimTime::from_ns(120'000'000),
                  [&] { pipe.reconfigure(fast); });
  // Flow 1's 30 small segments take three rounds against flow 2, so the
  // quantum and the deficit carried between rounds set the exit times.
  sim.schedule_at(SimTime::from_ns(200'000'000), [&] { send(1, 300, 30); });
  sim.schedule_at(SimTime::from_ns(210'000'000), [&] { send(2, 1500, 6); });
  sim.run();

  const std::vector<Exit> expected = {
      {3, 0, 37000000}, {1, 0, 39400000}, {1, 1, 41800000}, {1, 2, 44200000},
      {1, 3, 46600000}, {1, 4, 49000000}, {1, 5, 51400000}, {2, 0, 63400000},
      {2, 1, 75400000}, {3, 1, 107400000}, {2, 2, 119400000}, {2, 3, 131400000},
      {3, 2, 147400000}, {1, 6, 148600000}, {1, 7, 149800000},
      {1, 8, 151000000}, {3, 3, 167000000}, {3, 4, 183000000},
      {3, 5, 199000000}, {3, 6, 215000000}, {3, 7, 231000000},
      {1, 9, 232200000}, {1, 10, 233400000}, {1, 11, 234600000},
      {1, 12, 235800000}, {1, 13, 237000000}, {1, 14, 238200000},
      {1, 15, 239400000}, {1, 16, 240600000}, {1, 17, 241800000},
      {1, 18, 243000000}, {1, 19, 244200000}, {1, 20, 245400000},
      {1, 21, 246600000}, {2, 4, 252600000}, {2, 5, 258600000},
      {1, 22, 259800000}, {1, 23, 261000000}, {1, 24, 262200000},
      {1, 25, 263400000}, {1, 26, 264600000}, {1, 27, 265800000},
      {1, 28, 267000000}, {1, 29, 268200000}, {1, 30, 269400000},
      {1, 31, 270600000}, {1, 32, 271800000}, {1, 33, 273000000},
      {1, 34, 274200000}, {1, 35, 275400000}, {2, 6, 281400000},
      {2, 7, 287400000}, {2, 8, 293400000}, {1, 36, 294600000},
      {1, 37, 295800000}, {1, 38, 297000000}, {2, 9, 303000000},
  };


  ASSERT_EQ(exits.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(exits[i], expected[i]) << "exit " << i;
  }
  EXPECT_EQ(pipe.queued(), DataSize::zero());
}

TEST_F(PipeTest, FlowChurnKeepsFifo) {
  // 10 000 distinct flows, a few dozen backlogged at a time: each wave
  // brings 20 new flows of 3 segments before the previous wave has
  // drained, so flows keep joining and leaving the ring, the index and
  // their slots.
  // Random 64-bit ids exercise the index's probing and backward-shift
  // erase. Equal segments on a never-idle server leave exactly one
  // transmission time apart.
  constexpr std::size_t kFlows = 10000;
  constexpr std::size_t kPerWave = 20;
  constexpr int kSegs = 3;
  const Duration tx = Duration::us(12);  // 1500 B at 1 Gb/s
  Pipe pipe(sim, {.bandwidth = Bandwidth::gbps(1),
                  .queue_limit = DataSize::mib(1)},
            rng);
  Rng ids{99};
  std::vector<FlowId> flow_ids(kFlows);
  for (FlowId& id : flow_ids) id = ids.next_u64();
  std::vector<int> next_exit(kFlows, 0);
  std::int64_t exits = 0;
  std::int64_t bad = 0;
  auto wave = [&](std::size_t first) {
    for (std::size_t f = first; f < first + kPerWave; ++f) {
      for (int k = 0; k < kSegs; ++k) {
        EXPECT_TRUE(pipe.enqueue(Pipe::Segment{
            .size = DataSize::bytes(1500), .flow = flow_ids[f],
            .on_exit = [&, f, k] {
              ++exits;
              // FIFO per flow, and a work-conserving server from t = 0.
              if (next_exit[f]++ != k ||
                  sim.now() != SimTime::zero() + tx * exits) {
                ++bad;
              }
            }}));
      }
    }
  };
  // A wave carries 60 transmissions. Two start at t = 0 and one more
  // follows every 60, so 20 to 40 flows are backlogged at every moment.
  for (std::size_t w = 0; w < kFlows / kPerWave; ++w) {
    const auto start = static_cast<std::int64_t>(w == 0 ? 0 : w - 1);
    sim.schedule_at(SimTime::zero() + tx * (60 * start),
                    [&wave, w] { wave(w * kPerWave); });
  }
  sim.run();
  EXPECT_EQ(exits, static_cast<std::int64_t>(kFlows) * kSegs);
  EXPECT_EQ(bad, 0);
  for (std::size_t f = 0; f < kFlows; ++f) ASSERT_EQ(next_exit[f], kSegs) << f;
  EXPECT_EQ(pipe.queued(), DataSize::zero());
}

}  // namespace
}  // namespace p2plab::ipfw
