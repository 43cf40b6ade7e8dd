#include "bittorrent/picker.hpp"

#include <gtest/gtest.h>

#include <set>

namespace p2plab::bt {
namespace {

class PickerTest : public ::testing::Test {
 protected:
  // 8 pieces of 4 blocks (512 KiB, 64 KiB pieces): finer than the
  // swarm's kPieceLength, so the picker has pieces to choose between.
  MetaInfo meta = [] {
    MetaInfo m = MetaInfo::make_synthetic(DataSize::kib(512), 1);
    m.piece_length = DataSize::kib(64);
    return m;
  }();
  PieceStore store{meta};
  PiecePicker picker{meta, store, Rng{3}};

  Bitfield full_have() {
    Bitfield bf(meta.piece_count());
    bf.set_all();
    return bf;
  }

  void complete_piece(std::uint32_t p) {
    for (std::uint32_t b = 0; b < meta.blocks_in_piece(p); ++b) {
      picker.on_block_received(BlockRef{p, b});
      store.add_block(p, b);
    }
  }
};

TEST_F(PickerTest, AvailabilityBookkeeping) {
  picker.peer_has(3);
  picker.peer_has(3);
  EXPECT_EQ(picker.availability(3), 2u);
  Bitfield have(meta.piece_count());
  have.set(3);
  have.set(5);
  picker.peer_has_bitfield(have);
  EXPECT_EQ(picker.availability(3), 3u);
  EXPECT_EQ(picker.availability(5), 1u);
  picker.peer_lost(have);
  EXPECT_EQ(picker.availability(3), 2u);
  EXPECT_EQ(picker.availability(5), 0u);
}

TEST_F(PickerTest, PicksOnlyWhatPeerHas) {
  Bitfield have(meta.piece_count());
  have.set(6);
  picker.peer_has_bitfield(have);
  const auto ref = picker.pick(have);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->piece, 6u);
}

TEST_F(PickerTest, NothingToPickFromEmptyPeer) {
  Bitfield have(meta.piece_count());
  EXPECT_FALSE(picker.pick(have).has_value());
}

TEST_F(PickerTest, RarestFirstAfterFirstPiece) {
  // Complete piece 0 so random-first mode ends.
  complete_piece(0);
  // Piece 2 is rare (availability 1), the rest are common (3).
  for (std::uint32_t p = 1; p < meta.piece_count(); ++p) {
    picker.peer_has(p);
    picker.peer_has(p);
    if (p != 2) picker.peer_has(p);
  }
  const auto ref = picker.pick(full_have());
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->piece, 2u);
}

TEST_F(PickerTest, StrictPriorityFinishesStartedPieces) {
  complete_piece(0);
  // Start piece 5 (one block received), make piece 3 much rarer.
  picker.peer_has(5);
  picker.peer_has(5);
  picker.peer_has(5);
  picker.peer_has(3);
  store.add_block(5, 0);
  const auto ref = picker.pick(full_have());
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->piece, 5u);  // partial beats rare
  EXPECT_EQ(ref->block, 1u);
}

TEST_F(PickerTest, RequestedBlocksNotRepicked) {
  const Bitfield have = full_have();
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  // Pick every block in the torrent once.
  for (std::uint32_t i = 0; i < 32; ++i) {
    const auto ref = picker.pick(have);
    ASSERT_TRUE(ref.has_value()) << i;
    EXPECT_TRUE(seen.emplace(ref->piece, ref->block).second)
        << "block picked twice";
    picker.on_requested(*ref);
  }
  EXPECT_FALSE(picker.pick(have).has_value());
  EXPECT_TRUE(picker.all_missing_requested());
}

TEST_F(PickerTest, DiscardMakesBlockPickableAgain) {
  const Bitfield have = full_have();
  const auto ref = picker.pick(have);
  ASSERT_TRUE(ref.has_value());
  picker.on_requested(*ref);
  picker.on_request_discarded(*ref);
  // With random-first picking the same piece may or may not come back, but
  // the block must be reachable again: drain all picks and count.
  std::size_t picked = 0;
  while (picker.pick(have)) {
    const auto next = picker.pick(have);
    if (!next) break;
    picker.on_requested(*next);
    ++picked;
  }
  EXPECT_EQ(picked, 32u);  // every block still reachable exactly once
}

TEST_F(PickerTest, EndgameMissingBlocks) {
  const Bitfield have = full_have();
  // Request everything.
  while (auto ref = picker.pick(have)) picker.on_requested(*ref);
  EXPECT_TRUE(picker.all_missing_requested());
  const auto missing = picker.missing_blocks(have);
  EXPECT_EQ(missing.size(), 32u);  // nothing received yet
  // Receive one block: it leaves the missing set.
  picker.on_block_received(missing[0]);
  store.add_block(missing[0].piece, missing[0].block);
  EXPECT_EQ(picker.missing_blocks(have).size(), 31u);
}

TEST_F(PickerTest, CompletedPiecesNeverPicked) {
  complete_piece(0);
  complete_piece(1);
  Bitfield have(meta.piece_count());
  have.set(0);
  have.set(1);
  EXPECT_FALSE(picker.pick(have).has_value());
}

TEST_F(PickerTest, DuplicateDiscardIsSafe) {
  const auto ref = BlockRef{2, 1};
  picker.on_requested(ref);
  picker.on_request_discarded(ref);
  picker.on_request_discarded(ref);  // double release must not underflow
  picker.on_block_received(ref);     // receipt without request is fine
}

TEST_F(PickerTest, RandomFirstPieceSpreadsChoice) {
  // Before any piece completes, picks should not always start at piece 0.
  std::set<std::uint32_t> picked_pieces;
  for (int trial = 0; trial < 30; ++trial) {
    PiecePicker fresh(meta, store, Rng{static_cast<std::uint64_t>(trial)});
    const auto ref = fresh.pick(full_have());
    ASSERT_TRUE(ref.has_value());
    picked_pieces.insert(ref->piece);
  }
  EXPECT_GT(picked_pieces.size(), 3u);
}

}  // namespace
}  // namespace p2plab::bt
