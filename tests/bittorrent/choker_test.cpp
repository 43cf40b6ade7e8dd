#include "bittorrent/choker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace p2plab::bt {
namespace {

bool contains(const std::vector<PeerKey>& v, PeerKey k) {
  return std::find(v.begin(), v.end(), k) != v.end();
}

PeerSnapshot peer(PeerKey key, double rate, bool interested = true,
                  bool snubbed = false) {
  return PeerSnapshot{key, interested, snubbed, rate};
}

TEST(Choker, TopRatesGetRegularSlots) {
  Choker choker;
  Rng rng(1);
  const std::vector<PeerSnapshot> peers = {
      peer(1, 100), peer(2, 500), peer(3, 300), peer(4, 50), peer(5, 400),
  };
  const auto unchoked = choker.rechoke(SimTime::zero(), peers, rng);
  // 3 regular slots: peers 2, 5, 3. Plus one optimistic from {1, 4}.
  EXPECT_TRUE(contains(unchoked, 2));
  EXPECT_TRUE(contains(unchoked, 5));
  EXPECT_TRUE(contains(unchoked, 3));
  EXPECT_EQ(unchoked.size(), 4u);
  EXPECT_TRUE(contains(unchoked, 1) || contains(unchoked, 4));
}

TEST(Choker, UninterestedPeersNeverUnchoked) {
  Choker choker;
  Rng rng(1);
  const std::vector<PeerSnapshot> peers = {
      peer(1, 1000, /*interested=*/false),
      peer(2, 10),
  };
  const auto unchoked = choker.rechoke(SimTime::zero(), peers, rng);
  EXPECT_FALSE(contains(unchoked, 1));
  EXPECT_TRUE(contains(unchoked, 2));
}

TEST(Choker, SnubbedPeersLoseRegularSlots) {
  Choker choker;
  Rng rng(1);
  const std::vector<PeerSnapshot> peers = {
      peer(1, 1000, true, /*snubbed=*/true),
      peer(2, 100),
      peer(3, 90),
      peer(4, 80),
      peer(5, 70),
  };
  const auto unchoked = choker.rechoke(SimTime::zero(), peers, rng);
  // Peer 1 is fastest but snubbed: it can only hold the optimistic slot.
  EXPECT_TRUE(contains(unchoked, 2));
  EXPECT_TRUE(contains(unchoked, 3));
  EXPECT_TRUE(contains(unchoked, 4));
}

TEST(Choker, OptimisticRotatesOnInterval) {
  Choker choker;
  Rng rng(1);
  std::vector<PeerSnapshot> peers;
  for (PeerKey k = 1; k <= 10; ++k) peers.push_back(peer(k, 0));

  SimTime now = SimTime::zero();
  const auto first = choker.rechoke(now, peers, rng);
  const PeerKey optimistic1 = choker.optimistic();
  EXPECT_NE(optimistic1, kNoPeer);
  EXPECT_TRUE(contains(first, optimistic1));

  // Within 30 s: stable.
  now += Duration::sec(10);
  choker.rechoke(now, peers, rng);
  EXPECT_EQ(choker.optimistic(), optimistic1);

  // Across many rotations, different peers get the slot.
  std::set<PeerKey> seen;
  for (int i = 0; i < 20; ++i) {
    now += Duration::sec(30);
    choker.rechoke(now, peers, rng);
    seen.insert(choker.optimistic());
  }
  EXPECT_GT(seen.size(), 3u);
}

TEST(Choker, OptimisticReplacedWhenPeerLeaves) {
  Choker choker;
  Rng rng(2);
  // Three fast peers occupy the regular slots; two slow ones compete for
  // the optimistic slot.
  std::vector<PeerSnapshot> peers = {peer(1, 300), peer(2, 200),
                                     peer(3, 100), peer(4, 0), peer(5, 0)};
  choker.rechoke(SimTime::zero(), peers, rng);
  const PeerKey gone = choker.optimistic();
  ASSERT_TRUE(gone == 4 || gone == 5);
  // Remove the optimistic peer from the snapshot; the next rechoke
  // (within the interval) must pick a replacement.
  peers.erase(std::remove_if(peers.begin(), peers.end(),
                             [&](const PeerSnapshot& p) {
                               return p.key == gone;
                             }),
              peers.end());
  const auto unchoked =
      choker.rechoke(SimTime::zero() + Duration::sec(1), peers, rng);
  EXPECT_NE(choker.optimistic(), gone);
  EXPECT_EQ(choker.optimistic(), gone == 4 ? 5u : 4u);
  EXPECT_EQ(unchoked.size(), 4u);
}

TEST(Choker, NoInterestedPeersNoUnchokes) {
  Choker choker;
  Rng rng(3);
  const std::vector<PeerSnapshot> peers = {
      peer(1, 100, false), peer(2, 100, false)};
  EXPECT_TRUE(choker.rechoke(SimTime::zero(), peers, rng).empty());
  EXPECT_EQ(choker.optimistic(), kNoPeer);
}

TEST(Choker, SlotCountRespectsConfig) {
  // More interested peers than slots: exactly kUnchokeSlots are unchoked,
  // the kUnchokeSlots - 1 fastest plus one optimistic among the rest.
  Choker choker;
  Rng rng(4);
  std::vector<PeerSnapshot> peers;
  for (PeerKey k = 1; k <= 8; ++k) peers.push_back(peer(k, double(k)));
  const auto unchoked = choker.rechoke(SimTime::zero(), peers, rng);
  ASSERT_EQ(unchoked.size(), static_cast<std::size_t>(kUnchokeSlots));
  for (PeerKey k = 8; k > 8 - (kUnchokeSlots - 1); --k) {
    EXPECT_TRUE(contains(unchoked, k));
  }
  EXPECT_LE(choker.optimistic(), PeerKey{8 - (kUnchokeSlots - 1)});
}

TEST(Choker, FewerPeersThanSlots) {
  Choker choker;
  Rng rng(5);
  const std::vector<PeerSnapshot> peers = {peer(1, 10), peer(2, 20)};
  const auto unchoked = choker.rechoke(SimTime::zero(), peers, rng);
  EXPECT_EQ(unchoked.size(), 2u);
  EXPECT_TRUE(contains(unchoked, 1));
  EXPECT_TRUE(contains(unchoked, 2));
}

}  // namespace
}  // namespace p2plab::bt
