// MembershipTable unit tests: SWIM precedence, suspicion aging,
// incarnation refutation and the piggyback budget — the pure state
// machine, no sockets or sim involved.
#include "gossip/protocol.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.hpp"

namespace p2plab::gossip {
namespace {

SimTime at(int seconds) { return SimTime::zero() + Duration::sec(seconds); }

/// The rumors one send piggybacks.
std::vector<Update> piggyback(MembershipTable& table, std::size_t limit) {
  Payload payload;
  table.piggyback(limit, payload);
  const std::span<const Update> rumors = payload.piggybacked();
  return {rumors.begin(), rumors.end()};
}

TEST(MembershipTable, StartsKnowingOnlyItself) {
  MembershipTable table(3, 8);
  EXPECT_TRUE(table.entry(3).known);
  EXPECT_EQ(table.entry(3).state, MemberState::kAlive);
  for (std::uint32_t i = 0; i < 8; ++i) {
    if (i != 3) {
      EXPECT_FALSE(table.entry(i).known);
    }
  }
  EXPECT_TRUE(table.probe_candidates().empty());
}

TEST(MembershipTable, AliveNeedsStrictlyHigherIncarnationOnceKnown) {
  MembershipTable table(0, 4);
  EXPECT_TRUE(table.apply(Update{1, MemberState::kAlive, 0}, at(1)));
  // Same incarnation again: no change, no rumor churn.
  EXPECT_FALSE(table.apply(Update{1, MemberState::kAlive, 0}, at(2)));
  EXPECT_TRUE(table.apply(Update{1, MemberState::kAlive, 1}, at(3)));
  EXPECT_EQ(table.entry(1).incarnation, 1u);
}

TEST(MembershipTable, SuspectOverridesAliveAtSameIncarnation) {
  MembershipTable table(0, 4);
  table.apply(Update{1, MemberState::kAlive, 2}, at(1));
  EXPECT_TRUE(table.apply(Update{1, MemberState::kSuspect, 2}, at(2)));
  EXPECT_EQ(table.entry(1).state, MemberState::kSuspect);
  // Alive at the same incarnation does NOT clear the suspicion...
  EXPECT_FALSE(table.apply(Update{1, MemberState::kAlive, 2}, at(3)));
  EXPECT_EQ(table.entry(1).state, MemberState::kSuspect);
  // ...but the refuting (higher) incarnation does.
  EXPECT_TRUE(table.apply(Update{1, MemberState::kAlive, 3}, at(4)));
  EXPECT_EQ(table.entry(1).state, MemberState::kAlive);
}

TEST(MembershipTable, RejoinWithHigherIncarnationOverridesConfirmed) {
  MembershipTable table(0, 4);
  table.apply(Update{1, MemberState::kAlive, 0}, at(1));
  table.mark_suspect(1, at(2));
  EXPECT_TRUE(table.mark_confirmed(1, at(3)));
  EXPECT_EQ(table.entry(1).state, MemberState::kConfirmed);
  // The documented deviation: a rejoined member (bumped incarnation)
  // heals the confirm instead of staying dead forever.
  EXPECT_FALSE(table.apply(Update{1, MemberState::kAlive, 0}, at(4)));
  EXPECT_TRUE(table.apply(Update{1, MemberState::kAlive, 1}, at(5)));
  EXPECT_EQ(table.entry(1).state, MemberState::kAlive);
}

TEST(MembershipTable, SuspectTimeoutSweep) {
  MembershipTable table(0, 4);
  table.apply(Update{1, MemberState::kAlive, 0}, at(1));
  table.apply(Update{2, MemberState::kAlive, 0}, at(1));
  ASSERT_TRUE(table.mark_suspect(1, at(10)));
  ASSERT_TRUE(table.mark_suspect(2, at(12)));
  // Cutoff at t=10: only the older suspicion has expired.
  EXPECT_EQ(table.expired_suspects(at(10)),
            (std::vector<std::uint32_t>{1}));
  EXPECT_EQ(table.expired_suspects(at(12)),
            (std::vector<std::uint32_t>{1, 2}));
  EXPECT_TRUE(table.mark_confirmed(1, at(14)));
  // Confirmed members leave the suspect sweep and the probe pool.
  EXPECT_EQ(table.expired_suspects(at(14)),
            (std::vector<std::uint32_t>{2}));
  EXPECT_EQ(table.probe_candidates(), (std::vector<std::uint32_t>{2}));
}

TEST(MembershipTable, SuspectSweepFollowsEveryTransition) {
  MembershipTable table(0, 4);
  const auto swept = [&table] { return table.expired_suspects(at(100)); };
  using Ids = std::vector<std::uint32_t>;
  EXPECT_TRUE(swept().empty());
  // First heard of as a suspect, then re-suspected at a newer incarnation.
  ASSERT_TRUE(table.apply(Update{1, MemberState::kSuspect, 0}, at(1)));
  ASSERT_TRUE(table.apply(Update{1, MemberState::kSuspect, 1}, at(2)));
  EXPECT_EQ(swept(), (Ids{1}));
  // Refuted: the sweep is empty again.
  ASSERT_TRUE(table.apply(Update{1, MemberState::kAlive, 2}, at(3)));
  EXPECT_TRUE(swept().empty());
  ASSERT_TRUE(table.mark_suspect(1, at(4)));
  ASSERT_TRUE(table.apply(Update{2, MemberState::kSuspect, 0}, at(4)));
  EXPECT_EQ(swept(), (Ids{1, 2}));
  ASSERT_TRUE(table.mark_confirmed(1, at(5)));
  ASSERT_TRUE(table.apply(Update{2, MemberState::kConfirmed, 0}, at(5)));
  EXPECT_TRUE(swept().empty());
  // A confirmed member that rejoins and is suspected again re-enters.
  ASSERT_TRUE(table.apply(Update{2, MemberState::kAlive, 1}, at(6)));
  ASSERT_TRUE(table.mark_suspect(2, at(7)));
  EXPECT_EQ(swept(), (Ids{2}));
}

TEST(MembershipTable, SelfSuspicionTriggersRefutation) {
  MembershipTable table(2, 4);
  EXPECT_EQ(table.incarnation(), 0u);
  // Hearing ourselves suspected at our current incarnation: refute.
  EXPECT_TRUE(table.apply(Update{2, MemberState::kSuspect, 0}, at(1)));
  EXPECT_EQ(table.incarnation(), 1u);
  EXPECT_EQ(table.refutations(), 1u);
  EXPECT_EQ(table.entry(2).state, MemberState::kAlive);
  // A stale suspicion (older incarnation) is ignored, no bump.
  EXPECT_FALSE(table.apply(Update{2, MemberState::kSuspect, 0}, at(2)));
  EXPECT_EQ(table.incarnation(), 1u);
  EXPECT_EQ(table.refutations(), 1u);
  // The refutation queued an Alive rumor about ourselves.
  const std::vector<Update> rumors = piggyback(table, 8);
  ASSERT_FALSE(rumors.empty());
  EXPECT_EQ(rumors[0].subject, 2u);
  EXPECT_EQ(rumors[0].state, MemberState::kAlive);
  EXPECT_EQ(rumors[0].incarnation, 1u);
}

TEST(MembershipTable, BumpSelfSupersedesSuspicion) {
  MembershipTable table(1, 4);
  table.bump_self(at(5));
  EXPECT_EQ(table.incarnation(), 1u);
  const std::vector<Update> rumors = piggyback(table, 8);
  ASSERT_EQ(rumors.size(), 1u);
  EXPECT_EQ(rumors[0].subject, 1u);
  EXPECT_EQ(rumors[0].incarnation, 1u);
}

TEST(MembershipTable, PiggybackHonorsLimitAndBudget) {
  MembershipTable table(0, 64);
  for (std::uint32_t i = 1; i <= 12; ++i) {
    table.apply(Update{i, MemberState::kAlive, 1}, at(1));
  }
  EXPECT_EQ(table.rumors().size(), 12u);
  const std::vector<Update> first = piggyback(table, 8);
  EXPECT_EQ(first.size(), 8u);
  // Distinct subjects per message — queue_rumor keeps one rumor/subject.
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_NE(first[i].subject, first[i - 1].subject);
  }
  // Budget ~3·log2(64)+2 = 20 transmissions per rumor: drain until empty
  // and count that no rumor exceeds it.
  std::size_t sends = 0;
  while (!table.rumors().empty() && sends < 1000) {
    piggyback(table, 8);
    ++sends;
  }
  EXPECT_LT(sends, 1000u) << "rumor budget never exhausted";
}

// The one-pass selection must equal a full sort by (budget desc, subject
// asc) truncated to the limit, and leave the same budgets behind, on
// tables whose budgets tie in every pattern a run produces.
TEST(MembershipTable, PiggybackMatchesSortThenTruncate) {
  using Rumor = MembershipTable::Rumor;
  for (std::uint64_t seed = 1; seed <= 250; ++seed) {
    Rng rng(seed);
    const std::size_t nodes = 2 + rng.uniform(40);
    MembershipTable table(0, nodes);
    for (int step = 0; step < 60; ++step) {
      // Queue fresh rumors (full budget, so budgets tie often) ...
      for (std::uint64_t n = rng.uniform(4); n > 0; --n) {
        const auto subject = static_cast<std::uint32_t>(rng.uniform(nodes));
        const auto state = static_cast<MemberState>(rng.uniform(3));
        const auto incarnation = static_cast<std::uint32_t>(rng.uniform(4));
        table.apply(Update{subject, state, incarnation}, at(step));
      }
      // ... then spend some budget with a random limit.
      const std::size_t limit = rng.uniform(kPiggybackLimit + 1);
      std::vector<Rumor> expected_left = table.rumors();
      std::vector<std::size_t> order(expected_left.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Rumor& x = expected_left[a];
        const Rumor& y = expected_left[b];
        if (x.budget != y.budget) return x.budget > y.budget;
        return x.update.subject < y.update.subject;
      });
      if (order.size() > limit) order.resize(limit);
      std::vector<Update> expected;
      for (std::size_t index : order) {
        expected.push_back(expected_left[index].update);
        --expected_left[index].budget;
      }
      std::erase_if(expected_left,
                    [](const Rumor& r) { return r.budget == 0; });

      const std::vector<Update> got = piggyback(table, limit);
      ASSERT_EQ(got.size(), expected.size()) << "seed " << seed;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].subject, expected[i].subject) << "seed " << seed;
        EXPECT_EQ(got[i].state, expected[i].state) << "seed " << seed;
        EXPECT_EQ(got[i].incarnation, expected[i].incarnation)
            << "seed " << seed;
      }
      const std::vector<Rumor>& left = table.rumors();
      ASSERT_EQ(left.size(), expected_left.size()) << "seed " << seed;
      for (std::size_t i = 0; i < left.size(); ++i) {
        EXPECT_EQ(left[i].update.subject, expected_left[i].update.subject)
            << "seed " << seed;
        EXPECT_EQ(left[i].budget, expected_left[i].budget) << "seed " << seed;
      }
    }
  }
}

TEST(MembershipTable, SnapshotListsSelfFirst) {
  MembershipTable table(2, 4);
  table.apply(Update{0, MemberState::kAlive, 0}, at(1));
  table.apply(Update{1, MemberState::kSuspect, 0}, at(1));
  const std::vector<Update> snap = table.snapshot();
  ASSERT_GE(snap.size(), 3u);
  EXPECT_EQ(snap[0].subject, 2u);
  EXPECT_EQ(snap[0].state, MemberState::kAlive);
}

TEST(Protocol, WireBytesCountsHeaderAndRumors) {
  Payload p;
  EXPECT_EQ(wire_bytes(p), kGossipHeaderBytes);
  p.rumor_count = 3;
  EXPECT_EQ(wire_bytes(p), kGossipHeaderBytes + 3 * kUpdateWireBytes);
  p.rumor_count = 0;
  p.snapshot.resize(5);
  EXPECT_EQ(wire_bytes(p), kGossipHeaderBytes + 5 * kUpdateWireBytes);
}

}  // namespace
}  // namespace p2plab::gossip
