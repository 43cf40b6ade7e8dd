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

MetaInfo MetaInfo::make_synthetic(DataSize total_size,
                                  std::uint64_t content_seed) {
  static_assert(kPieceLength.count_bytes() % kBlockLength == 0);
  P2PLAB_ASSERT(total_size.count_bytes() > 0);
  MetaInfo meta;
  meta.total_size = total_size;
  // splitmix64 is a bijection of its state, and the size multiplier is
  // odd: holding either input fixed, distinct values of the other give
  // distinct ids.
  std::uint64_t sm =
      content_seed ^ (total_size.count_bytes() * 0x9e3779b97f4a7c15ull);
  meta.info_hash = splitmix64(sm);
  return meta;
}

}  // namespace p2plab::bt
