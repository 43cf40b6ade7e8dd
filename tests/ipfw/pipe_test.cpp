#include "ipfw/pipe.hpp"

#include <gtest/gtest.h>

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
        .on_exit = [this, exits] { exits->push_back(sim.now()); },
        .on_drop = nullptr};
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
    Pipe::Segment s = seg(DataSize::bytes(1500), 1, &exits);
    s.on_drop = [&dropped] { ++dropped; };
    pipe.enqueue(std::move(s));
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
    pipe.enqueue(Pipe::Segment{.size = DataSize::bytes(100), .flow = 1,
                               .on_exit = [&delivered] { ++delivered; },
                               .on_drop = [&dropped] { ++dropped; }});
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

}  // namespace
}  // namespace p2plab::ipfw
