#include "bittorrent/metainfo.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace p2plab::bt {

std::uint32_t MetaInfo::piece_size(std::uint32_t index) const {
  P2PLAB_ASSERT(index < piece_count());
  const std::uint64_t pl = piece_length.count_bytes();
  const std::uint64_t start = std::uint64_t{index} * pl;
  return static_cast<std::uint32_t>(
      std::min(pl, total_size.count_bytes() - start));
}

std::uint32_t MetaInfo::blocks_in_piece(std::uint32_t index) const {
  return (piece_size(index) + kBlockLength - 1) / kBlockLength;
}

std::uint32_t MetaInfo::block_size(std::uint32_t piece,
                                   std::uint32_t block) const {
  P2PLAB_ASSERT(block < blocks_in_piece(piece));
  const std::uint32_t size = piece_size(piece);
  const std::uint32_t start = block * kBlockLength;
  return std::min(kBlockLength, size - start);
}

MetaInfo MetaInfo::make_synthetic(std::string name, DataSize total_size,
                                  std::uint64_t content_seed) {
  static_assert(kPieceLength.count_bytes() % kBlockLength == 0);
  P2PLAB_ASSERT(total_size.count_bytes() > 0);
  MetaInfo meta;
  meta.name = std::move(name);
  meta.total_size = total_size;
  meta.content_seed = content_seed;

  // The infohash must still be stable and unique per torrent; stand in
  // for the 20N-byte pieces string with a seed-derived marker.
  std::uint64_t sm = content_seed;
  const std::string pieces_blob = "unhashed:" + std::to_string(splitmix64(sm));

  // The bencoded info dict, keys in sorted order as bencode requires.
  auto bytes = [](const std::string& s) {
    return std::to_string(s.size()) + ":" + s;
  };
  meta.info_hash = Sha1::hash(
      "d6:lengthi" + std::to_string(total_size.count_bytes()) + "e4:name" +
      bytes(meta.name) + "12:piece lengthi" +
      std::to_string(kPieceLength.count_bytes()) + "e6:pieces" +
      bytes(pieces_blob) + "e");
  return meta;
}

}  // namespace p2plab::bt
