// FaultPlan: builder, deterministic churn expansion, scenario parser.
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace p2plab::fault {
namespace {

SimTime at_sec(double s) { return SimTime::zero() + Duration::seconds(s); }

TEST(FaultPlanBuilder, AppendsSpecsInOrderAndSortIsStable) {
  FaultPlan plan;
  plan.crash(4, at_sec(30))
      .link_down(2, at_sec(10), Duration::sec(5))
      .crash_and_rejoin(7, at_sec(10), Duration::sec(60))
      .tracker_outage(at_sec(20), Duration::sec(15));
  ASSERT_EQ(plan.size(), 4u);
  plan.sort();
  // Stable sort: the two t=10 entries keep insertion order.
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kCrash);
  EXPECT_TRUE(plan.specs()[1].rejoin);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::kTrackerOutage);
  EXPECT_EQ(plan.specs()[3].kind, FaultKind::kCrash);
  EXPECT_FALSE(plan.specs()[3].rejoin);
}

TEST(FaultPlanChurn, VictimCountTimesAndDowntimesRespectConfig) {
  ChurnConfig config;
  config.first_node = 10;
  config.last_node = 49;  // population of 40
  config.fraction = 0.25;
  config.window_start = at_sec(100);
  config.window_end = at_sec(500);
  config.rejoin_fraction = 1.0;
  config.rejoin_min = Duration::sec(20);
  config.rejoin_max = Duration::sec(40);
  Rng rng{99};
  FaultPlan plan = FaultPlan::churn(config, rng);
  ASSERT_EQ(plan.size(), 10u);  // floor(40 * 0.25)
  std::set<std::size_t> victims;
  for (const FaultSpec& spec : plan.specs()) {
    EXPECT_EQ(spec.kind, FaultKind::kCrash);
    EXPECT_TRUE(spec.rejoin);
    EXPECT_GE(spec.node, 10u);
    EXPECT_LE(spec.node, 49u);
    EXPECT_GE(spec.at, config.window_start);
    EXPECT_LT(spec.at, config.window_end);
    EXPECT_GE(spec.duration, config.rejoin_min);
    EXPECT_LT(spec.duration, config.rejoin_max);
    victims.insert(spec.node);
  }
  EXPECT_EQ(victims.size(), 10u);  // no node fails twice
  EXPECT_TRUE(std::is_sorted(
      plan.specs().begin(), plan.specs().end(),
      [](const FaultSpec& a, const FaultSpec& b) { return a.at < b.at; }));
}

TEST(FaultPlanChurn, SameSeedSamePlanDifferentSeedDifferentPlan) {
  ChurnConfig config;
  config.first_node = 0;
  config.last_node = 99;
  config.fraction = 0.5;
  config.window_start = at_sec(0);
  config.window_end = at_sec(1000);
  auto expand = [&](std::uint64_t seed) {
    Rng rng{seed};
    return FaultPlan::churn(config, rng).specs();
  };
  auto same = [](const std::vector<FaultSpec>& a,
                 const std::vector<FaultSpec>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].kind != b[i].kind || a[i].node != b[i].node ||
          a[i].at != b[i].at || a[i].duration != b[i].duration ||
          a[i].rejoin != b[i].rejoin) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(same(expand(7), expand(7)));
  EXPECT_FALSE(same(expand(7), expand(8)));
}

TEST(FaultPlanChurn, LeaveFractionProducesGracefulDepartures) {
  ChurnConfig config;
  config.first_node = 0;
  config.last_node = 199;
  config.fraction = 1.0;
  config.window_start = at_sec(0);
  config.window_end = at_sec(100);
  config.rejoin_fraction = 0.0;
  config.leave_fraction = 0.5;
  Rng rng{3};
  FaultPlan plan = FaultPlan::churn(config, rng);
  ASSERT_EQ(plan.size(), 200u);
  std::size_t leaves = 0;
  for (const FaultSpec& spec : plan.specs()) {
    leaves += spec.kind == FaultKind::kLeave;
  }
  EXPECT_GT(leaves, 70u);  // ~100 expected; loose 3-sigma-ish bounds
  EXPECT_LT(leaves, 130u);
}

TEST(FaultPlanParse, ParsesEveryDirectiveWithUnits) {
  const auto result = FaultPlan::parse(R"(
    # a full scenario
    crash node=4 at=30    # trailing comments are fine too
    crash node=5 at=45s rejoin=60
    leave node=6 at=50
    linkdown node=2 at=10 for=5s
    spike node=3 at=20 add=150ms for=30
    burstloss node=7 at=40 for=25 pgb=0.05 pbg=0.25 lossbad=0.9 lossgood=0.01
    tracker_outage at=100 for=60
  )");
  ASSERT_TRUE(result.plan.has_value()) << result.error;
  // parse() returns the plan time-sorted, not in file order.
  const auto& specs = result.plan->specs();
  ASSERT_EQ(specs.size(), 7u);

  EXPECT_EQ(specs[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(specs[0].node, 2u);
  EXPECT_EQ(specs[0].at, at_sec(10));  // bare numbers are seconds
  EXPECT_EQ(specs[0].duration, Duration::sec(5));

  EXPECT_EQ(specs[1].kind, FaultKind::kLatencySpike);
  EXPECT_EQ(specs[1].extra_latency, Duration::ms(150));
  EXPECT_EQ(specs[1].duration, Duration::sec(30));

  EXPECT_EQ(specs[2].kind, FaultKind::kCrash);
  EXPECT_EQ(specs[2].node, 4u);
  EXPECT_EQ(specs[2].at, at_sec(30));
  EXPECT_FALSE(specs[2].rejoin);

  EXPECT_EQ(specs[3].kind, FaultKind::kBurstLoss);
  EXPECT_DOUBLE_EQ(specs[3].burst.p_good_to_bad, 0.05);
  EXPECT_DOUBLE_EQ(specs[3].burst.p_bad_to_good, 0.25);
  EXPECT_DOUBLE_EQ(specs[3].burst.loss_bad, 0.9);
  EXPECT_DOUBLE_EQ(specs[3].burst.loss_good, 0.01);

  EXPECT_EQ(specs[4].kind, FaultKind::kCrash);
  EXPECT_EQ(specs[4].node, 5u);
  EXPECT_TRUE(specs[4].rejoin);
  EXPECT_EQ(specs[4].duration, Duration::sec(60));

  EXPECT_EQ(specs[5].kind, FaultKind::kLeave);
  EXPECT_EQ(specs[5].node, 6u);

  EXPECT_EQ(specs[6].kind, FaultKind::kTrackerOutage);
  EXPECT_EQ(specs[6].at, at_sec(100));
  EXPECT_EQ(specs[6].duration, Duration::sec(60));
}

TEST(FaultPlanParse, RejectsMalformedInputWithLineNumbers) {
  auto expect_error = [](std::string_view text) {
    const auto result = FaultPlan::parse(text);
    EXPECT_FALSE(result.plan.has_value()) << "accepted: " << text;
    EXPECT_EQ(result.error.rfind("line 1: ", 0), 0u) << result.error;
  };
  expect_error("explode node=1 at=3");            // unknown directive
  expect_error("crash at=3");                     // missing node
  expect_error("crash node=1");                   // missing time
  expect_error("crash node=x at=3");              // bad integer
  expect_error("linkdown node=1 at=3");           // missing window
  expect_error("spike node=1 at=3 for=5");        // missing add
  expect_error("burstloss node=1 at=3 for=5 pgb=1.5 pbg=0.5");  // p > 1
  expect_error("burstloss node=1 at=3 for=5 pgb=0.5 pbg=0");    // pbg = 0
  expect_error("crash node=1 at=3 bogus=7");      // unknown attribute
  // Each of these used to parse and then abort the run or change it.
  expect_error("burstloss node=1 at=3 for=5 pgb=nan pbg=0.5");  // NaN
  expect_error("spike node=1 at=3 add=1e30 for=5");  // past the ns clock
  expect_error("tracker_outage at=1e300 for=5");
  expect_error("crash node=1 at=inf");
  expect_error("crash node=-1 at=3");             // wrapped to 2^64-1
  expect_error("crash node=1.5 at=3");            // truncated to 1
  expect_error("crash node=1 node=2 at=3");       // last one won
}

TEST(FaultPlanParse, NodeIndexesAreBoundedByTheCaller) {
  EXPECT_TRUE(FaultPlan::parse("crash node=7 at=1", 7).plan.has_value());
  EXPECT_EQ(FaultPlan::parse("crash node=8 at=1", 7).error,
            "line 1: node must be at most 7");
  // tracker_outage names no node, so the bound does not apply.
  EXPECT_TRUE(FaultPlan::parse("tracker_outage at=1 for=2", 0)
                  .plan.has_value());
}

TEST(FaultPlanParse, HashStartsACommentInsideAToken) {
  // Same comment rule as .scn and topology files: `at=5#x` is `at=5`.
  const auto result = FaultPlan::parse("crash node=3 at=5#x rejoin=9\n");
  ASSERT_TRUE(result.plan.has_value()) << result.error;
  ASSERT_EQ(result.plan->size(), 1u);
  EXPECT_EQ(result.plan->specs()[0].at, at_sec(5));
  EXPECT_FALSE(result.plan->specs()[0].rejoin);
}

TEST(FaultPlanParse, KindNamesAreStable) {
  // Trace consumers key on these strings; changing them breaks CI greps.
  EXPECT_STREQ(fault_kind_name(FaultKind::kCrash), "crash");
  EXPECT_STREQ(fault_kind_name(FaultKind::kLeave), "leave");
  EXPECT_STREQ(fault_kind_name(FaultKind::kLinkDown), "link_down");
  EXPECT_STREQ(fault_kind_name(FaultKind::kLatencySpike), "latency_spike");
  EXPECT_STREQ(fault_kind_name(FaultKind::kBurstLoss), "burst_loss");
  EXPECT_STREQ(fault_kind_name(FaultKind::kTrackerOutage),
               "tracker_outage");
}

}  // namespace
}  // namespace p2plab::fault
