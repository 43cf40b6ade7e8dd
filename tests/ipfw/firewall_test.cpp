#include "ipfw/firewall.hpp"

#include <gtest/gtest.h>

namespace p2plab::ipfw {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }
CidrBlock cidr(const char* text) { return *CidrBlock::parse(text); }

class FirewallTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  Firewall fw{sim, FirewallConfig{}, Rng{1}};
};

TEST_F(FirewallTest, PipeIdsStartAtOne) {
  const PipeId a = fw.create_pipe({.bandwidth = Bandwidth::mbps(2)});
  const PipeId b = fw.create_pipe({.bandwidth = Bandwidth::kbps(128)});
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(fw.pipe(a).config().bandwidth, Bandwidth::mbps(2));
  EXPECT_EQ(fw.pipe(b).config().bandwidth, Bandwidth::kbps(128));
  EXPECT_EQ(fw.pipe_count(), 2u);
}

TEST_F(FirewallTest, RulesSortByNumber) {
  const PipeId p = fw.create_pipe({});
  fw.add_rule({.number = 300, .src = cidr("10.0.0.3/32"),
               .dst = CidrBlock::any(), .action = RuleAction::kPipe,
               .pipe = p});
  fw.add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
               .dst = CidrBlock::any(), .action = RuleAction::kDeny});
  fw.add_rule({.number = 200, .src = cidr("10.0.0.1/32"),
               .dst = CidrBlock::any(), .action = RuleAction::kPipe,
               .pipe = p});
  // Rule 100 (deny) must win over rule 200 despite insertion order.
  const auto result = fw.classify(ip("10.0.0.1"), ip("10.0.0.9"));
  EXPECT_TRUE(result.denied);
  EXPECT_TRUE(result.pipes.empty());
}

TEST_F(FirewallTest, ScanCostScalesWithRules) {
  // The Figure 6 mechanism, at the firewall API level.
  fw.add_filler_rules(1000, 5000);
  const auto result = fw.classify(ip("10.0.0.1"), ip("10.0.0.2"));
  EXPECT_EQ(result.rules_scanned, 5000u);
  EXPECT_EQ(fw.charged_rules(result), 5000u);
  // 5000 rules at 50 ns each = 250 us of scan latency.
  EXPECT_NEAR(fw.scan_cost(result).to_micros(), 250.0, 1e-9);
}

TEST_F(FirewallTest, IndexedScanCostAblationFlattens) {
  // The ablation charges the index's probes; the linear walk length is
  // still reported, and the verdict does not change.
  sim::Simulation sim2;
  Firewall indexed_fw{sim2, FirewallConfig{.indexed_scan_cost = true},
                      Rng{1}};
  indexed_fw.add_filler_rules(1000, 5000);
  const auto result = indexed_fw.classify(ip("10.0.0.1"), ip("10.0.0.2"));
  EXPECT_LE(indexed_fw.charged_rules(result), 1u);
  EXPECT_EQ(indexed_fw.scan_cost(result), Duration::zero());
  EXPECT_EQ(result.rules_scanned, 5000u);
  EXPECT_FALSE(result.denied);
}

TEST_F(FirewallTest, VnodeShapingScenario) {
  // The paper's per-vnode setup: one pipe+rule per direction.
  const PipeId up = fw.create_pipe({.bandwidth = Bandwidth::kbps(128),
                                    .delay = Duration::ms(30)});
  const PipeId down = fw.create_pipe({.bandwidth = Bandwidth::mbps(2),
                                      .delay = Duration::ms(30)});
  fw.add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
               .dst = CidrBlock::any(), .action = RuleAction::kPipe,
               .pipe = up});
  fw.add_rule({.number = 110, .src = CidrBlock::any(),
               .dst = cidr("10.0.0.1/32"), .action = RuleAction::kPipe,
               .pipe = down});

  const auto outgoing = fw.classify(ip("10.0.0.1"), ip("10.0.5.9"));
  ASSERT_EQ(outgoing.pipes.size(), 1u);
  EXPECT_EQ(outgoing.pipes[0], up);

  const auto incoming = fw.classify(ip("10.0.5.9"), ip("10.0.0.1"));
  ASSERT_EQ(incoming.pipes.size(), 1u);
  EXPECT_EQ(incoming.pipes[0], down);
}

TEST_F(FirewallTest, DefaultPerRuleCostMatchesCalibration) {
  EXPECT_EQ(kPerRuleCost, Duration::ns(50));
  EXPECT_FALSE(fw.config().indexed_scan_cost);  // charge the linear walk
}

}  // namespace
}  // namespace p2plab::ipfw
