#include "ipfw/rule.hpp"

#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

namespace p2plab::ipfw {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }
CidrBlock cidr(const char* text) { return *CidrBlock::parse(text); }

Rule pipe_rule(std::uint32_t number, const char* src, const char* dst,
               PipeId pipe) {
  return Rule{.number = number,
              .src = cidr(src),
              .dst = cidr(dst),
              .action = RuleAction::kPipe,
              .pipe = pipe};
}

TEST(Rule, MatchesBySrcAndDst) {
  const Rule r = pipe_rule(100, "10.1.3.0/24", "10.1.1.0/24", 1);
  EXPECT_TRUE(r.matches(ip("10.1.3.207"), ip("10.1.1.5"), RuleDir::kAny));
  EXPECT_FALSE(r.matches(ip("10.1.2.207"), ip("10.1.1.5"), RuleDir::kAny));
  EXPECT_FALSE(r.matches(ip("10.1.3.207"), ip("10.1.2.5"), RuleDir::kAny));
}

TEST(Rule, DirectionQualifier) {
  Rule out_rule = pipe_rule(100, "10.0.0.1/32", "0.0.0.0/0", 1);
  out_rule.dir = RuleDir::kOut;
  EXPECT_TRUE(out_rule.matches(ip("10.0.0.1"), ip("10.0.0.2"), RuleDir::kOut));
  EXPECT_FALSE(out_rule.matches(ip("10.0.0.1"), ip("10.0.0.2"), RuleDir::kIn));
  // Diagnostic (kAny) passes see every rule.
  EXPECT_TRUE(out_rule.matches(ip("10.0.0.1"), ip("10.0.0.2"), RuleDir::kAny));
}

RuleTable table_of(std::initializer_list<Rule> rules) {
  RuleTable table;
  for (const Rule& rule : rules) table.add(rule);
  return table;
}

TEST(RuleTable, EmptyListImplicitAllow) {
  RuleTable table;
  const auto result =
      table.classify(ip("10.0.0.1"), ip("10.0.0.2"), RuleDir::kAny);
  EXPECT_FALSE(result.denied);
  EXPECT_TRUE(result.pipes.empty());
  EXPECT_EQ(result.rules_scanned, 0u);
  EXPECT_EQ(result.rules_probed, 0u);
}

TEST(RuleTable, PipeRulesAccumulateInOrder) {
  // The paper's Figure 7 path: the vnode's own pipe AND an inter-group
  // latency pipe both apply to one packet (one_pass=0 semantics).
  RuleTable table = table_of({
      pipe_rule(100, "10.1.3.207/32", "0.0.0.0/0", 1),  // vnode uplink
      pipe_rule(200, "10.1.0.0/16", "10.2.0.0/16", 2),  // group latency
  });
  const auto result =
      table.classify(ip("10.1.3.207"), ip("10.2.2.117"), RuleDir::kAny);
  EXPECT_EQ(result.pipes, (std::vector<PipeId>{1, 2}));
  EXPECT_EQ(result.rules_scanned, 2u);
}

TEST(RuleTable, DenyStopsScan) {
  RuleTable table = table_of({
      Rule{.number = 50, .src = cidr("10.9.0.0/16"), .dst = CidrBlock::any(),
           .action = RuleAction::kDeny},
      pipe_rule(100, "0.0.0.0/0", "0.0.0.0/0", 1),
  });
  const auto denied =
      table.classify(ip("10.9.1.1"), ip("10.0.0.1"), RuleDir::kAny);
  EXPECT_TRUE(denied.denied);
  EXPECT_TRUE(denied.pipes.empty());
  EXPECT_EQ(denied.rules_scanned, 1u);

  const auto passed =
      table.classify(ip("10.8.1.1"), ip("10.0.0.1"), RuleDir::kAny);
  EXPECT_FALSE(passed.denied);
  EXPECT_EQ(passed.pipes, (std::vector<PipeId>{1}));
  EXPECT_EQ(passed.rules_scanned, 2u);
}

TEST(RuleTable, AllowStopsScan) {
  RuleTable table = table_of({
      Rule{.number = 10, .src = cidr("192.168.38.0/24"),
           .dst = CidrBlock::any(), .action = RuleAction::kAllow},
      pipe_rule(100, "0.0.0.0/0", "0.0.0.0/0", 1),
  });
  const auto result =
      table.classify(ip("192.168.38.1"), ip("10.0.0.1"), RuleDir::kAny);
  EXPECT_FALSE(result.denied);
  EXPECT_TRUE(result.pipes.empty());  // admin traffic bypasses shaping
  EXPECT_EQ(result.rules_scanned, 1u);
}

TEST(RuleTable, ScanCountIsListLength) {
  // Figure 6's mechanism: a non-matching packet walks every rule, while
  // the index sees that none of them concerns this source.
  RuleTable table;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    table.add(Rule{.number = i,
                   .src = cidr("255.255.255.255/32"),
                   .dst = CidrBlock::any(),
                   .action = RuleAction::kDeny});
  }
  const auto result =
      table.classify(ip("10.0.0.1"), ip("10.0.0.2"), RuleDir::kAny);
  EXPECT_EQ(result.rules_scanned, 1000u);
  EXPECT_EQ(result.rules_probed, 0u);
  EXPECT_FALSE(result.denied);
}

TEST(RuleTable, ProbesIndependentOfHostRuleCount) {
  // The ablation the paper wished for: host-addressed rules are indexed,
  // so the probe count does not grow with the number of hosted vnodes,
  // while the linear walk still pays for every rule in front of the match.
  RuleTable table;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const Ipv4Addr host = ip("10.0.0.0").offset(i + 1);
    table.add(Rule{.number = 2 * i,
                   .src = CidrBlock{host, 32},
                   .dst = CidrBlock::any(),
                   .action = RuleAction::kPipe,
                   .pipe = i + 1});
  }
  table.add(pipe_rule(100000, "10.1.0.0/16", "10.2.0.0/16", 5000));
  const auto result =
      table.classify(ip("10.0.0.5"), ip("10.9.9.9"), RuleDir::kAny);
  ASSERT_EQ(result.pipes.size(), 1u);
  EXPECT_EQ(result.pipes[0], 5u);
  EXPECT_EQ(result.rules_probed, 2u);  // the host hit + the group rule
  EXPECT_EQ(result.rules_scanned, 2001u);
}

TEST(RuleTable, PreservesRuleOrderAcrossBuckets) {
  // A dst-host rule numbered earlier must apply before a src-host rule
  // numbered later, even though they live in different index halves.
  RuleTable table = table_of({
      Rule{.number = 10, .src = CidrBlock::any(), .dst = cidr("10.0.0.2/32"),
           .action = RuleAction::kDeny},
      pipe_rule(20, "10.0.0.1/32", "0.0.0.0/0", 1),
  });
  const auto result =
      table.classify(ip("10.0.0.1"), ip("10.0.0.2"), RuleDir::kAny);
  EXPECT_TRUE(result.denied);
  EXPECT_TRUE(result.pipes.empty());
  EXPECT_EQ(result.rules_scanned, 1u);
  EXPECT_EQ(result.rules_probed, 1u);
}

}  // namespace
}  // namespace p2plab::ipfw
