// Gilbert-Elliott bursty-loss model: burst statistics, determinism, and
// the administratively-down fault switch.
#include "ipfw/pipe.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "metrics/registry.hpp"

namespace p2plab::ipfw {
namespace {

class GilbertElliottTest : public ::testing::Test {
 protected:
  /// Feed `n` zero-delay segments through `pipe` one sim-step at a time
  /// and record, per segment, whether it was dropped.
  std::vector<bool> run_segments(Pipe& pipe, int n) {
    std::vector<bool> dropped;
    dropped.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      const auto index = dropped.size();
      dropped.push_back(true);  // flipped back by on_exit
      pipe.enqueue(Pipe::Segment{
          .size = DataSize::bytes(1500),
          .flow = 1,
          .on_exit = [&dropped, index] { dropped[index] = false; }});
    }
    sim.run();
    return dropped;
  }

  static PipeConfig ge_config(double pgb, double pbg, double loss_bad,
                              double loss_good = 0.0) {
    return PipeConfig{
        .bandwidth = Bandwidth::unlimited(),
        .burst_loss = GilbertElliott{.p_good_to_bad = pgb,
                                     .p_bad_to_good = pbg,
                                     .loss_good = loss_good,
                                     .loss_bad = loss_bad},
        .queue_limit = DataSize::mib(64)};
  }

  std::uint64_t count(const char* name) {
    return reg.counter(std::string("ipfw.pipe.") + name).value();
  }
  /// Every loss cause together: random, burst, link down, queue overflow.
  std::uint64_t drops() {
    return count("drops_loss") + count("drops_burst") + count("drops_down") +
           count("drops_overflow");
  }

  metrics::Registry reg;
  sim::Simulation sim;
};

TEST_F(GilbertElliottTest, DisabledModelLosesNothing) {
  Pipe pipe(sim, PipeConfig{.bandwidth = Bandwidth::unlimited()}, Rng{7});
  pipe.bind_metrics(PipeMetrics::resolve(reg));
  const auto dropped = run_segments(pipe, 2000);
  for (const bool d : dropped) EXPECT_FALSE(d);
  EXPECT_EQ(drops(), 0u);
}

TEST_F(GilbertElliottTest, LongRunLossMatchesStationaryBadShare) {
  // pgb=0.1, pbg=0.25, loss_bad=1: stationary loss = 0.1/(0.1+0.25) ~ 28.6%.
  Pipe pipe(sim, ge_config(0.1, 0.25, 1.0), Rng{42});
  pipe.bind_metrics(PipeMetrics::resolve(reg));
  const int n = 40000;
  const auto dropped = run_segments(pipe, n);
  int losses = 0;
  for (const bool d : dropped) losses += d;
  const double rate = static_cast<double>(losses) / n;
  EXPECT_NEAR(rate, 0.1 / 0.35, 0.02);
  EXPECT_EQ(count("drops_burst"), static_cast<std::uint64_t>(losses));
  EXPECT_EQ(drops(), static_cast<std::uint64_t>(losses));
}

TEST_F(GilbertElliottTest, MeanBurstLengthIsInverseRecoveryProbability) {
  // With loss_bad=1 a burst lasts exactly the bad-state sojourn: geometric
  // with mean 1/p_bad_to_good = 4 segments.
  Pipe pipe(sim, ge_config(0.05, 0.25, 1.0), Rng{1234});
  const auto dropped = run_segments(pipe, 60000);
  std::vector<int> bursts;
  int current = 0;
  for (const bool d : dropped) {
    if (d) {
      ++current;
    } else if (current > 0) {
      bursts.push_back(current);
      current = 0;
    }
  }
  if (current > 0) bursts.push_back(current);
  ASSERT_GT(bursts.size(), 100u);
  double mean = 0;
  for (const int b : bursts) mean += b;
  mean /= static_cast<double>(bursts.size());
  EXPECT_NEAR(mean, 4.0, 0.4);  // within 10% over ~thousands of bursts
}

TEST_F(GilbertElliottTest, GoodStateLossStillApplies) {
  // loss_good adds background loss between bursts.
  Pipe pipe(sim, ge_config(0.01, 0.5, 1.0, /*loss_good=*/0.05), Rng{5});
  const auto dropped = run_segments(pipe, 40000);
  int losses = 0;
  for (const bool d : dropped) losses += d;
  // Stationary bad share = 0.01/0.51 ~ 2%; total ~ 2% + 98%*5% ~ 6.9%.
  const double rate = static_cast<double>(losses) / 40000.0;
  EXPECT_NEAR(rate, 0.069, 0.01);
}

TEST_F(GilbertElliottTest, DeterministicUnderFixedSeed) {
  auto pattern = [this](std::uint64_t seed) {
    sim::Simulation local_sim;
    Pipe pipe(local_sim, ge_config(0.1, 0.3, 0.9), Rng{seed});
    std::vector<bool> dropped;
    for (int i = 0; i < 5000; ++i) {
      const auto index = dropped.size();
      dropped.push_back(true);
      pipe.enqueue(Pipe::Segment{
          .size = DataSize::bytes(1500),
          .flow = 1,
          .on_exit = [&dropped, index] { dropped[index] = false; }});
    }
    local_sim.run();
    return dropped;
  };
  EXPECT_EQ(pattern(77), pattern(77));
  EXPECT_NE(pattern(77), pattern(78));
}

TEST_F(GilbertElliottTest, ChainStateSurvivesReconfigure) {
  // Reconfiguring bandwidth mid-run must not reset the chain (a latency
  // spike on a bursty link should not heal the link).
  Pipe pipe(sim, ge_config(0.5, 0.001, 1.0), Rng{9});
  pipe.bind_metrics(PipeMetrics::resolve(reg));
  run_segments(pipe, 200);  // almost surely in the bad state now
  const auto before = count("drops_burst");
  EXPECT_GT(before, 0u);
  PipeConfig cfg = pipe.config();
  cfg.delay = Duration::ms(100);
  pipe.reconfigure(cfg);
  const auto dropped = run_segments(pipe, 200);
  int losses = 0;
  for (const bool d : dropped) losses += d;
  // p_bad_to_good=0.001: had the chain reset to good, p_good_to_bad=0.5
  // would still lose far fewer than the ~all-lost of a bad-state chain.
  EXPECT_GT(losses, 150);
}

TEST_F(GilbertElliottTest, BurstLengthsPassChiSquareAgainstGeometric) {
  // The accuracy harness (DESIGN.md §13) trusts the G-E implementation for
  // its loss invariant; this pins the full distribution, not just moments.
  // With loss_bad=1, burst lengths are the bad-state sojourn: geometric
  // with P(L=k) = pbg*(1-pbg)^(k-1). Seeded, so the statistic is a fixed
  // number — the threshold is chi-square df=8, p=0.001.
  const double pgb = 0.02, pbg = 0.25;
  Pipe pipe(sim, ge_config(pgb, pbg, 1.0), Rng{20260809});
  const int n = 80000;
  const auto dropped = run_segments(pipe, n);

  std::vector<int> bursts;
  int losses = 0, current = 0;
  for (const bool d : dropped) {
    losses += d;
    if (d) {
      ++current;
    } else if (current > 0) {
      bursts.push_back(current);
      current = 0;
    }
  }
  if (current > 0) bursts.push_back(current);

  // Observed loss rate vs the chain's stationary bad share.
  EXPECT_NEAR(static_cast<double>(losses) / n, pgb / (pgb + pbg), 0.01);

  // Mean burst length vs 1/pbg.
  ASSERT_GT(bursts.size(), 1000u);
  double mean = 0;
  for (const int b : bursts) mean += b;
  mean /= static_cast<double>(bursts.size());
  EXPECT_NEAR(mean, 1.0 / pbg, 0.1 / pbg);  // within 10%

  // Chi-square over bins {1..8, >=9}. Expected counts under the geometric
  // law all exceed ~45, comfortably above the >=5 rule of thumb.
  constexpr int kBins = 8;
  double observed[kBins + 1] = {};
  for (const int b : bursts) ++observed[b <= kBins ? b - 1 : kBins];
  const double total = static_cast<double>(bursts.size());
  double chi2 = 0, tail_p = 1.0;
  for (int k = 0; k < kBins; ++k) {
    const double p_k = pbg * std::pow(1.0 - pbg, k);
    tail_p -= p_k;
    const double expected = total * p_k;
    chi2 += (observed[k] - expected) * (observed[k] - expected) / expected;
  }
  const double expected_tail = total * tail_p;
  chi2 += (observed[kBins] - expected_tail) * (observed[kBins] - expected_tail)
          / expected_tail;
  EXPECT_LT(chi2, 26.12) << "burst lengths deviate from Geometric(p_bad_to_"
                            "good) at the p=0.001 level";
}

TEST_F(GilbertElliottTest, AdminDownDropsEverythingUntilRestored) {
  Pipe pipe(sim, PipeConfig{.bandwidth = Bandwidth::unlimited()}, Rng{3});
  pipe.bind_metrics(PipeMetrics::resolve(reg));
  pipe.set_down(true);
  EXPECT_TRUE(pipe.is_down());
  auto dropped = run_segments(pipe, 50);
  for (const bool d : dropped) EXPECT_TRUE(d);
  EXPECT_EQ(count("drops_down"), 50u);
  EXPECT_EQ(drops(), 50u);
  pipe.set_down(false);
  dropped = run_segments(pipe, 50);
  for (const bool d : dropped) EXPECT_FALSE(d);
  EXPECT_EQ(count("drops_down"), 50u);
}

}  // namespace
}  // namespace p2plab::ipfw
