#include "metrics/stats.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace p2plab::metrics {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsSafe) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, SingleSampleHasZeroVariance) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

TEST(Distribution, QuantilesOfKnownData) {
  Distribution d;
  for (int i = 1; i <= 100; ++i) d.add(i);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 100.0);
  EXPECT_NEAR(d.median(), 50.5, 1e-9);
  EXPECT_NEAR(d.quantile(0.25), 25.75, 1e-9);
  EXPECT_NEAR(d.quantile(0.99), 99.01, 1e-9);
}

TEST(Distribution, EmptyHasNoMinOrMax) {
  // Like quantile() and mean(): an empty sample set has no extremes, and
  // reading one is a caller bug, not a 0.
  const Distribution d;
  EXPECT_DEATH((void)d.min(), "empty");
  EXPECT_DEATH((void)d.max(), "empty");
}

TEST(Distribution, CdfStepFunction) {
  Distribution d;
  for (double v : {1.0, 2.0, 2.0, 3.0}) d.add(v);
  EXPECT_DOUBLE_EQ(d.cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(d.cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(d.cdf(2.5), 0.75);
  EXPECT_DOUBLE_EQ(d.cdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(99.0), 1.0);
}

TEST(Distribution, CdfPointsAreMonotone) {
  Distribution d;
  Rng rng(1);
  for (int i = 0; i < 500; ++i) d.add(rng.normal(0, 1));
  const auto points = d.cdf_points();
  ASSERT_EQ(points.size(), 500u);
  for (size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i - 1].first, points[i].first);
    EXPECT_LT(points[i - 1].second, points[i].second);
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

TEST(Distribution, AddAfterQueryResorts) {
  Distribution d;
  d.add(5.0);
  EXPECT_DOUBLE_EQ(d.median(), 5.0);
  d.add(1.0);
  d.add(9.0);
  EXPECT_DOUBLE_EQ(d.median(), 5.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

// Property: quantile is monotone in q and bounded by min/max.
TEST(Distribution, QuantileMonotoneProperty) {
  Distribution d;
  Rng rng(2);
  for (int i = 0; i < 300; ++i) d.add(rng.uniform_double(-10, 10));
  double prev = d.quantile(0.0);
  EXPECT_DOUBLE_EQ(prev, d.min());
  for (double q = 0.05; q <= 1.0 + 1e-12; q += 0.05) {
    const double cur = d.quantile(std::min(q, 1.0));
    EXPECT_GE(cur, prev);
    prev = cur;
  }
  EXPECT_DOUBLE_EQ(d.quantile(1.0), d.max());
}

// Property: mean of Distribution matches Summary on identical data.
TEST(Distribution, MeanMatchesSummary) {
  Distribution d;
  Summary s;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.exponential(4.0);
    d.add(v);
    s.add(v);
  }
  EXPECT_NEAR(d.mean(), s.mean(), 1e-9);
}

}  // namespace
}  // namespace p2plab::metrics
