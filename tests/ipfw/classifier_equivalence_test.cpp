// Property test: classification through RuleTable's first-match index is
// equivalent to ipfw's linear walk. A test-local reference walks the
// number-sorted rule list one rule at a time; for randomized tables — host
// (/32) rules on either or both sides, group rules, allow/deny rules,
// in/out/any directions, duplicate rule numbers and the never-matching
// fillers of the Figure 6 sweep — every probe must produce the identical
// verdict, the identical pipe sequence, the exact linear walk length
// (rules_scanned, what Figure 6 charges) and the exact candidate count of
// a host-keyed index (rules_probed, what the ablation charges).
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ipfw/firewall.hpp"
#include "ipfw/rule.hpp"

namespace p2plab::ipfw {
namespace {

constexpr PipeId kPipes = 16;

struct Reference {
  bool denied = false;
  std::vector<PipeId> pipes;
  std::uint32_t scanned = 0;
  std::uint32_t probed = 0;
};

/// Would an index keyed by each rule's /32 side (src first) hand this rule
/// to a packet from `s` to `d`? Rules with no /32 side always are.
bool indexed_candidate(const Rule& rule, Ipv4Addr s, Ipv4Addr d) {
  if (rule.src.prefix_len() == 32) return rule.src.base() == s;
  if (rule.dst.prefix_len() == 32) return rule.dst.base() == d;
  return true;
}

/// ipfw's linear walk over `added` in rule-number order (ties in
/// insertion order), counting every rule examined and every rule a
/// host-keyed index would have examined.
Reference reference_walk(std::vector<Rule> added, Ipv4Addr s, Ipv4Addr d,
                         RuleDir pass) {
  std::stable_sort(added.begin(), added.end(),
                   [](const Rule& a, const Rule& b) {
                     return a.number < b.number;
                   });
  Reference ref;
  for (const Rule& rule : added) {
    ++ref.scanned;
    if (indexed_candidate(rule, s, d)) ++ref.probed;
    if (!rule.matches(s, d, pass)) continue;
    if (rule.action == RuleAction::kPipe) {
      ref.pipes.push_back(rule.pipe);
      continue;
    }
    ref.denied = rule.action == RuleAction::kDeny;
    return ref;
  }
  return ref;
}

// The address pool is deliberately tiny (4 groups x 8 hosts) so random
// probes actually hit the random rules instead of falling through.
Ipv4Addr random_host(Rng& rng) {
  const std::uint32_t group = static_cast<std::uint32_t>(rng.uniform(4));
  const std::uint32_t host = static_cast<std::uint32_t>(rng.uniform(8));
  return *Ipv4Addr::parse("10." + std::to_string(group + 1) + ".0." +
                          std::to_string(host + 1));
}

CidrBlock random_block(Rng& rng) {
  switch (rng.uniform(3)) {
    case 0:
      return CidrBlock::any();
    case 1:  // group-level /16
      return CidrBlock{*Ipv4Addr::parse(
                           "10." + std::to_string(rng.uniform(4) + 1) + ".0.0"),
                       16};
    default:  // host-level /32: the indexed case, on either or both sides
      return CidrBlock{random_host(rng), 32};
  }
}

RuleDir random_dir(Rng& rng) {
  const std::uint64_t d = rng.uniform(3);
  return d == 0 ? RuleDir::kIn : d == 1 ? RuleDir::kOut : RuleDir::kAny;
}

Rule random_rule(Rng& rng) {
  Rule r;
  // Coarse numbers produce duplicates; ipfw keeps insertion order among
  // equal numbers and the index must honor it.
  r.number = static_cast<std::uint32_t>(rng.uniform(8)) * 100;
  r.src = random_block(rng);
  r.dst = random_block(rng);
  r.dir = random_dir(rng);
  const std::uint64_t action = rng.uniform(8);
  if (action == 0) {
    r.action = RuleAction::kDeny;
  } else if (action == 1) {
    r.action = RuleAction::kAllow;
  } else {
    r.action = RuleAction::kPipe;
    r.pipe = static_cast<PipeId>(rng.uniform(kPipes) + 1);
  }
  return r;
}

/// A firewall with kPipes pipes and a mirror of every rule it was given,
/// in insertion order, for the reference walk.
class Mirrored {
 public:
  Mirrored() {
    for (PipeId p = 0; p < kPipes; ++p) fw_.create_pipe({});
  }

  void add_rule(const Rule& rule) {
    fw_.add_rule(rule);
    added_.push_back(rule);
  }

  /// Firewall::add_filler_rules, mirrored with the same rules.
  void add_fillers(std::uint32_t first_number, std::uint32_t count) {
    fw_.add_filler_rules(first_number, count);
    for (std::uint32_t i = 0; i < count; ++i) {
      added_.push_back(Rule{
          .number = first_number + i,
          .src = CidrBlock{Ipv4Addr::from_octets(255, 255, 255, 255), 32},
          .action = RuleAction::kDeny});
    }
  }

  /// Classify through the index and assert it agrees with the reference.
  MatchResult check(Ipv4Addr s, Ipv4Addr d, RuleDir pass) {
    const MatchResult got = fw_.classify(s, d, pass);
    const Reference want = reference_walk(added_, s, d, pass);
    EXPECT_EQ(got.denied, want.denied) << s.to_string() << " -> "
                                       << d.to_string();
    EXPECT_EQ(got.pipes, want.pipes) << s.to_string() << " -> "
                                     << d.to_string();
    EXPECT_EQ(got.rules_scanned, want.scanned) << s.to_string() << " -> "
                                               << d.to_string();
    EXPECT_EQ(got.rules_probed, want.probed) << s.to_string() << " -> "
                                             << d.to_string();
    return got;
  }

 private:
  sim::Simulation sim_;
  Firewall fw_{sim_, FirewallConfig{}, Rng{1}};
  std::vector<Rule> added_;
};

TEST(ClassifierEquivalence, RandomTablesIdenticalVerdictsAndPipes) {
  Rng rng(20260806);
  for (int table = 0; table < 40; ++table) {
    SCOPED_TRACE("table " + std::to_string(table));
    Mirrored fw;
    const std::size_t count = 1 + rng.uniform(60);
    for (std::size_t i = 0; i < count; ++i) fw.add_rule(random_rule(rng));
    // Figure 6-style padding behind the random rules.
    fw.add_fillers(100000, static_cast<std::uint32_t>(rng.uniform(50)));
    for (int probe = 0; probe < 50; ++probe) {
      fw.check(random_host(rng), random_host(rng), random_dir(rng));
    }
  }
}

TEST(ClassifierEquivalence, MutationsBetweenClassificationsRebuildTheIndex) {
  // The ping_sweep pattern: rules arrive between classifications. Each
  // step adds rules that sort anywhere in the list (among them, deny and
  // allow rules ahead of rules the previous step already matched), so a
  // stale index would answer with the old table.
  Rng rng(20261017);
  for (int table = 0; table < 20; ++table) {
    SCOPED_TRACE("table " + std::to_string(table));
    Mirrored fw;
    std::uint32_t next_filler = 1000;
    for (int step = 0; step < 8; ++step) {
      const std::size_t count = rng.uniform(6);
      for (std::size_t i = 0; i < count; ++i) fw.add_rule(random_rule(rng));
      const auto fillers = static_cast<std::uint32_t>(rng.uniform(20));
      fw.add_fillers(next_filler, fillers);
      next_filler += fillers;
      for (int probe = 0; probe < 10; ++probe) {
        fw.check(random_host(rng), random_host(rng), random_dir(rng));
      }
    }
  }
}

TEST(ClassifierEquivalence, RulesAddedAfterAClassificationTakeEffect) {
  // The smallest stale-index traps: after the packet matched its host
  // pipe, a group pipe is appended behind it, then a deny for the same
  // host is inserted in front of both.
  Mirrored fw;
  const CidrBlock host{*Ipv4Addr::parse("10.1.0.1"), 32};
  const Ipv4Addr src = *Ipv4Addr::parse("10.1.0.1");
  const Ipv4Addr dst = *Ipv4Addr::parse("10.2.0.1");
  fw.add_rule(Rule{.number = 200, .src = host, .dst = CidrBlock::any(),
                   .action = RuleAction::kPipe, .pipe = 4});
  EXPECT_EQ(fw.check(src, dst, RuleDir::kOut).pipes,
            (std::vector<PipeId>{4}));
  fw.add_rule(Rule{.number = 300, .src = *CidrBlock::parse("10.1.0.0/16"),
                   .dst = CidrBlock::any(), .action = RuleAction::kPipe,
                   .pipe = 5});
  EXPECT_EQ(fw.check(src, dst, RuleDir::kOut).pipes,
            (std::vector<PipeId>{4, 5}));
  fw.add_rule(Rule{.number = 100, .src = host, .dst = CidrBlock::any(),
                   .action = RuleAction::kDeny});
  const MatchResult after = fw.check(src, dst, RuleDir::kOut);
  EXPECT_TRUE(after.denied);
  EXPECT_TRUE(after.pipes.empty());
}

TEST(ClassifierEquivalence, HostRulesOnBothSidesAreKeyedBySource) {
  // A rule with /32 on both sides sits under its source address: it must
  // still require the destination, and count as one candidate.
  Mirrored fw;
  const CidrBlock a{*Ipv4Addr::parse("10.1.0.1"), 32};
  const CidrBlock b{*Ipv4Addr::parse("10.2.0.1"), 32};
  fw.add_rule(Rule{.number = 100, .src = a, .dst = b,
                   .action = RuleAction::kPipe, .pipe = 1});
  fw.add_rule(Rule{.number = 200, .src = CidrBlock::any(), .dst = b,
                   .action = RuleAction::kPipe, .pipe = 2});
  const Ipv4Addr ia = a.base();
  const Ipv4Addr ib = b.base();
  const Ipv4Addr other = *Ipv4Addr::parse("10.3.0.1");
  EXPECT_EQ(fw.check(ia, ib, RuleDir::kAny).pipes,
            (std::vector<PipeId>{1, 2}));
  EXPECT_EQ(fw.check(other, ib, RuleDir::kAny).pipes,
            (std::vector<PipeId>{2}));
  EXPECT_TRUE(fw.check(ia, other, RuleDir::kAny).pipes.empty());
}

TEST(ClassifierEquivalence, HostAndGroupRulesMatchReference) {
  Mirrored fw;
  for (const Rule& rule : {
           Rule{.number = 100, .src = *CidrBlock::parse("10.1.3.207/32"),
                .action = RuleAction::kPipe, .pipe = 1},
           Rule{.number = 110, .dst = *CidrBlock::parse("10.1.3.207/32"),
                .action = RuleAction::kPipe, .pipe = 2},
           Rule{.number = 200, .src = *CidrBlock::parse("10.1.0.0/16"),
                .dst = *CidrBlock::parse("10.2.0.0/16"),
                .action = RuleAction::kPipe, .pipe = 3},
           Rule{.number = 210, .src = *CidrBlock::parse("10.1.0.0/16"),
                .dst = *CidrBlock::parse("10.3.0.0/16"),
                .action = RuleAction::kPipe, .pipe = 4},
       }) {
    fw.add_rule(rule);
  }
  const std::pair<const char*, const char*> probes[] = {
      {"10.1.3.207", "10.2.2.117"}, {"10.2.2.117", "10.1.3.207"},
      {"10.1.3.207", "10.3.0.5"},   {"10.1.2.7", "10.2.0.9"},
      {"10.5.0.1", "10.6.0.1"},
  };
  for (const auto& [s, d] : probes) {
    fw.check(*Ipv4Addr::parse(s), *Ipv4Addr::parse(d), RuleDir::kAny);
  }
}

TEST(ClassifierEquivalence, EqualRuleNumbersKeepInsertionOrder) {
  // Two pipe rules with the same number and the same host key: the packet
  // must traverse the pipes in insertion order.
  Mirrored fw;
  const CidrBlock host{*Ipv4Addr::parse("10.1.0.1"), 32};
  fw.add_rule(Rule{.number = 100, .src = host, .dst = CidrBlock::any(),
                   .action = RuleAction::kPipe, .pipe = 7});
  fw.add_rule(Rule{.number = 100, .src = host, .dst = CidrBlock::any(),
                   .action = RuleAction::kPipe, .pipe = 3});
  const MatchResult got = fw.check(*Ipv4Addr::parse("10.1.0.1"),
                                   *Ipv4Addr::parse("10.2.0.1"),
                                   RuleDir::kAny);
  EXPECT_EQ(got.pipes, (std::vector<PipeId>{7, 3}));
}

TEST(ClassifierEquivalence, FillerRulesOnlyChangeScanCount) {
  // The exact Figure 6 setup: a real host rule plus thousands of filler
  // rules. The linear walk pays for every filler; the index probes only
  // the host rule. That gap is the whole point of the ablation.
  Mirrored fw;
  fw.add_rule(Rule{.number = 10,
                   .src = CidrBlock{*Ipv4Addr::parse("10.1.0.1"), 32},
                   .dst = CidrBlock::any(), .action = RuleAction::kPipe,
                   .pipe = 1});
  fw.add_fillers(1000, 5000);
  const MatchResult got = fw.check(*Ipv4Addr::parse("10.1.0.1"),
                                   *Ipv4Addr::parse("10.9.0.1"),
                                   RuleDir::kAny);
  EXPECT_EQ(got.pipes, (std::vector<PipeId>{1}));
  EXPECT_EQ(got.rules_scanned, 5001u);  // walks every filler
  EXPECT_EQ(got.rules_probed, 1u);      // indexed lookup
}

}  // namespace
}  // namespace p2plab::ipfw
