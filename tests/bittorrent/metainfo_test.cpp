#include "bittorrent/metainfo.hpp"

#include <gtest/gtest.h>

namespace p2plab::bt {
namespace {

TEST(MetaInfo, PieceGeometry16MiB) {
  // The paper's torrent: 16 MB file, 256 KB pieces -> 64 pieces.
  const auto meta =
      MetaInfo::make_synthetic("f", DataSize::mib(16), 1, false);
  EXPECT_EQ(meta.piece_count(), 64u);
  EXPECT_EQ(meta.piece_size(0), 256u * 1024);
  EXPECT_EQ(meta.piece_size(63), 256u * 1024);
  EXPECT_EQ(meta.blocks_in_piece(0), 16u);  // 256 KiB / 16 KiB
  EXPECT_EQ(meta.block_size(0, 0), kBlockLength);
}

TEST(MetaInfo, ShortLastPiece) {
  const auto meta = MetaInfo::make_synthetic(
      "f", DataSize::bytes(256 * 1024 + 20000), 1, false);
  EXPECT_EQ(meta.piece_count(), 2u);
  EXPECT_EQ(meta.piece_size(1), 20000u);
  EXPECT_EQ(meta.blocks_in_piece(1), 2u);  // 16384 + 3616
  EXPECT_EQ(meta.block_size(1, 0), kBlockLength);
  EXPECT_EQ(meta.block_size(1, 1), 20000u - kBlockLength);
}

TEST(MetaInfo, SyntheticContentIsDeterministic) {
  const auto a = MetaInfo::make_synthetic("f", DataSize::kib(512), 7, false);
  const auto b = MetaInfo::make_synthetic("f", DataSize::kib(512), 7, false);
  EXPECT_EQ(a.generate_piece(0), b.generate_piece(0));
  EXPECT_EQ(a.generate_piece(1), b.generate_piece(1));
}

TEST(MetaInfo, DifferentSeedsDifferentContent) {
  const auto a = MetaInfo::make_synthetic("f", DataSize::kib(512), 7, false);
  const auto b = MetaInfo::make_synthetic("f", DataSize::kib(512), 8, false);
  EXPECT_NE(a.generate_piece(0), b.generate_piece(0));
}

TEST(MetaInfo, HashedPiecesVerify) {
  const auto meta = MetaInfo::make_synthetic("f", DataSize::mib(1), 3, true);
  ASSERT_EQ(meta.piece_hashes.size(), meta.piece_count());
  for (std::uint32_t p = 0; p < meta.piece_count(); ++p) {
    EXPECT_EQ(Sha1::hash(meta.generate_piece(p)), meta.piece_hashes[p]);
  }
}

TEST(MetaInfo, InfohashStableAndUnique) {
  const auto a1 = MetaInfo::make_synthetic("f", DataSize::mib(1), 3, true);
  const auto a2 = MetaInfo::make_synthetic("f", DataSize::mib(1), 3, true);
  const auto b = MetaInfo::make_synthetic("f", DataSize::mib(1), 4, true);
  const auto c = MetaInfo::make_synthetic("g", DataSize::mib(1), 3, true);
  EXPECT_EQ(a1.info_hash, a2.info_hash);
  EXPECT_NE(a1.info_hash, b.info_hash);
  EXPECT_NE(a1.info_hash, c.info_hash);
}

TEST(MetaInfo, UnhashedInfohashStillUniquePerSeed) {
  const auto a = MetaInfo::make_synthetic("f", DataSize::mib(1), 3, false);
  const auto b = MetaInfo::make_synthetic("f", DataSize::mib(1), 4, false);
  EXPECT_NE(a.info_hash, b.info_hash);
  EXPECT_TRUE(a.piece_hashes.empty());
}

TEST(MetaInfo, InfohashPinsTheCanonicalInfoDict) {
  // The infohash is the SHA-1 of the bencoded info dict (sorted keys:
  // length, name, piece length, pieces); these digests pin its bytes.
  const auto hashed = MetaInfo::make_synthetic("f", DataSize::mib(1), 3, true);
  const auto unhashed =
      MetaInfo::make_synthetic("swarm", DataSize::mib(16), 42, false);
  EXPECT_EQ(to_hex(hashed.info_hash),
            "0441b630abc8391b42603db4824191f666b070e2");
  EXPECT_EQ(to_hex(unhashed.info_hash),
            "14580c8075bc94756061c66b273c25d366edaed0");
}

TEST(MetaInfo, PieceBytesMatchDeclaredSizes) {
  const auto meta = MetaInfo::make_synthetic(
      "f", DataSize::bytes(300 * 1024), 9, false);
  for (std::uint32_t p = 0; p < meta.piece_count(); ++p) {
    EXPECT_EQ(meta.generate_piece(p).size(), meta.piece_size(p));
  }
}

}  // namespace
}  // namespace p2plab::bt
