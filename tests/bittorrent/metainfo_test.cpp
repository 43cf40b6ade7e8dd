#include "bittorrent/metainfo.hpp"

#include <gtest/gtest.h>

namespace p2plab::bt {
namespace {

TEST(MetaInfo, PieceGeometry16MiB) {
  // The paper's torrent: 16 MB file, 256 KB pieces -> 64 pieces.
  const auto meta = MetaInfo::make_synthetic("f", DataSize::mib(16), 1);
  EXPECT_EQ(meta.piece_length, kPieceLength);
  EXPECT_EQ(meta.piece_count(), 64u);
  EXPECT_EQ(meta.piece_size(0), 256u * 1024);
  EXPECT_EQ(meta.piece_size(63), 256u * 1024);
  EXPECT_EQ(meta.blocks_in_piece(0), 16u);  // 256 KiB / 16 KiB
  EXPECT_EQ(meta.block_size(0, 0), kBlockLength);
}

TEST(MetaInfo, ShortLastPiece) {
  const auto meta = MetaInfo::make_synthetic(
      "f", DataSize::bytes(256 * 1024 + 20000), 1);
  EXPECT_EQ(meta.piece_count(), 2u);
  EXPECT_EQ(meta.piece_size(1), 20000u);
  EXPECT_EQ(meta.blocks_in_piece(1), 2u);  // 16384 + 3616
  EXPECT_EQ(meta.block_size(1, 0), kBlockLength);
  EXPECT_EQ(meta.block_size(1, 1), 20000u - kBlockLength);
}

TEST(MetaInfo, InfohashStableAndUnique) {
  const auto a1 = MetaInfo::make_synthetic("f", DataSize::mib(1), 3);
  const auto a2 = MetaInfo::make_synthetic("f", DataSize::mib(1), 3);
  const auto b = MetaInfo::make_synthetic("f", DataSize::mib(1), 4);
  const auto c = MetaInfo::make_synthetic("g", DataSize::mib(1), 3);
  EXPECT_EQ(a1.info_hash, a2.info_hash);
  EXPECT_NE(a1.info_hash, b.info_hash);
  EXPECT_NE(a1.info_hash, c.info_hash);
}

TEST(MetaInfo, UnhashedInfohashStillUniquePerSeed) {
  // No per-piece SHA-1s: the seed marker alone tells the torrents apart.
  const auto a = MetaInfo::make_synthetic("f", DataSize::mib(1), 3);
  const auto b = MetaInfo::make_synthetic("f", DataSize::mib(1), 4);
  EXPECT_NE(a.info_hash, b.info_hash);
}

TEST(MetaInfo, InfohashPinsTheCanonicalInfoDict) {
  // The infohash is the SHA-1 of the bencoded info dict (sorted keys:
  // length, name, piece length, pieces); this digest pins its bytes, and
  // with them every shipped run's torrent.
  const auto meta = MetaInfo::make_synthetic("swarm", DataSize::mib(16), 42);
  EXPECT_EQ(to_hex(meta.info_hash),
            "14580c8075bc94756061c66b273c25d366edaed0");
}

TEST(MetaInfo, PieceBytesMatchDeclaredSizes) {
  // Blocks tile their piece and pieces tile the file, short tails included.
  const auto meta = MetaInfo::make_synthetic(
      "f", DataSize::bytes(300 * 1024), 9);
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
