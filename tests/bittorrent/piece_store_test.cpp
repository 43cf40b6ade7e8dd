#include "bittorrent/piece_store.hpp"

#include <gtest/gtest.h>

namespace p2plab::bt {
namespace {

class PieceStoreTest : public ::testing::Test {
 protected:
  // 1 MiB, 256 KiB pieces -> 4 pieces of 16 blocks.
  MetaInfo meta = MetaInfo::make_synthetic(DataSize::mib(1), 5);
};

TEST_F(PieceStoreTest, StartsEmpty) {
  PieceStore store(meta);
  EXPECT_FALSE(store.complete());
  EXPECT_EQ(store.have().count(), 0u);
  EXPECT_DOUBLE_EQ(store.fraction_complete(), 0.0);
  EXPECT_EQ(store.bytes_downloaded(), DataSize::zero());
}

TEST_F(PieceStoreTest, FillCompleteMakesSeed) {
  PieceStore store(meta);
  store.fill_complete();
  EXPECT_TRUE(store.complete());
  EXPECT_DOUBLE_EQ(store.fraction_complete(), 1.0);
  EXPECT_TRUE(store.have_block(3, 15));
}

TEST_F(PieceStoreTest, BlockAccumulationCompletesPiece) {
  PieceStore store(meta);
  for (std::uint32_t b = 0; b < 15; ++b) {
    EXPECT_EQ(store.add_block(0, b), PieceStore::BlockResult::kAccepted);
  }
  EXPECT_FALSE(store.have_piece(0));
  EXPECT_EQ(store.blocks_received(0), 15u);
  EXPECT_EQ(store.add_block(0, 15), PieceStore::BlockResult::kPieceComplete);
  EXPECT_TRUE(store.have_piece(0));
  EXPECT_EQ(store.bytes_downloaded(), DataSize::kib(256));
}

TEST_F(PieceStoreTest, DuplicateBlockDetected) {
  PieceStore store(meta);
  store.add_block(1, 3);
  EXPECT_EQ(store.add_block(1, 3), PieceStore::BlockResult::kDuplicate);
  EXPECT_EQ(store.blocks_received(1), 1u);
}

TEST_F(PieceStoreTest, FractionCountsBlocks) {
  PieceStore store(meta);
  for (std::uint32_t b = 0; b < 16; ++b) store.add_block(0, b);
  for (std::uint32_t b = 0; b < 8; ++b) store.add_block(1, b);
  // 24 of 64 blocks.
  EXPECT_NEAR(store.fraction_complete(), 24.0 / 64.0, 1e-12);
}

}  // namespace
}  // namespace p2plab::bt
