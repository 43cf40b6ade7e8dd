#include "bittorrent/metainfo.hpp"

#include <gtest/gtest.h>

#include <set>

namespace p2plab::bt {
namespace {

TEST(MetaInfo, PieceGeometry16MiB) {
  // The paper's torrent: 16 MB file, 256 KB pieces -> 64 pieces.
  const auto meta = MetaInfo::make_synthetic(DataSize::mib(16), 1);
  EXPECT_EQ(meta.piece_length, kPieceLength);
  EXPECT_EQ(meta.piece_count(), 64u);
  EXPECT_EQ(meta.piece_size(0), 256u * 1024);
  EXPECT_EQ(meta.piece_size(63), 256u * 1024);
  EXPECT_EQ(meta.blocks_in_piece(0), 16u);  // 256 KiB / 16 KiB
  EXPECT_EQ(meta.block_size(0, 0), kBlockLength);
}

TEST(MetaInfo, ShortLastPiece) {
  const auto meta =
      MetaInfo::make_synthetic(DataSize::bytes(256 * 1024 + 20000), 1);
  EXPECT_EQ(meta.piece_count(), 2u);
  EXPECT_EQ(meta.piece_size(1), 20000u);
  EXPECT_EQ(meta.blocks_in_piece(1), 2u);  // 16384 + 3616
  EXPECT_EQ(meta.block_size(1, 0), kBlockLength);
  EXPECT_EQ(meta.block_size(1, 1), 20000u - kBlockLength);
}

TEST(MetaInfo, InfohashStableAndUnique) {
  // Same seed and size -> same id; another seed or another size -> another.
  const auto a1 = MetaInfo::make_synthetic(DataSize::mib(1), 3);
  const auto a2 = MetaInfo::make_synthetic(DataSize::mib(1), 3);
  const auto b = MetaInfo::make_synthetic(DataSize::mib(1), 4);
  const auto c = MetaInfo::make_synthetic(DataSize::mib(2), 3);
  EXPECT_EQ(a1.info_hash, a2.info_hash);
  EXPECT_NE(a1.info_hash, b.info_hash);
  EXPECT_NE(a1.info_hash, c.info_hash);
}

TEST(MetaInfo, UnhashedInfohashStillUniquePerSeed) {
  // The seed alone tells torrents of one size apart, over a run of seeds.
  std::set<std::uint64_t> ids;
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    ids.insert(MetaInfo::make_synthetic(DataSize::mib(1), seed).info_hash);
  }
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(MetaInfo, PieceBytesMatchDeclaredSizes) {
  // Blocks tile their piece and pieces tile the file, short tails included.
  const auto meta = MetaInfo::make_synthetic(DataSize::bytes(300 * 1024), 9);
  std::uint64_t file_bytes = 0;
  for (std::uint32_t p = 0; p < meta.piece_count(); ++p) {
    std::uint32_t piece_bytes = 0;
    for (std::uint32_t b = 0; b < meta.blocks_in_piece(p); ++b) {
      piece_bytes += meta.block_size(p, b);
    }
    EXPECT_EQ(piece_bytes, meta.piece_size(p));
    file_bytes += piece_bytes;
  }
  EXPECT_EQ(file_bytes, meta.total_size.count_bytes());
}

}  // namespace
}  // namespace p2plab::bt
