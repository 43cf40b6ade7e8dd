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

std::vector<std::uint8_t> MetaInfo::generate_piece(std::uint32_t index) const {
  const std::uint32_t size = piece_size(index);
  std::vector<std::uint8_t> data(size);
  // 8 bytes per SplitMix64 step, keyed by (seed, absolute 8-byte offset):
  // random-access so any node regenerates any piece independently.
  const std::uint64_t base =
      (std::uint64_t{index} * piece_length.count_bytes()) / 8;
  for (std::uint32_t i = 0; i < size; i += 8) {
    std::uint64_t sm = content_seed ^ ((base + i / 8) * 0x9e3779b97f4a7c15ull);
    const std::uint64_t word = splitmix64(sm);
    for (std::uint32_t b = 0; b < 8 && i + b < size; ++b) {
      data[i + b] = static_cast<std::uint8_t>(word >> (8 * b));
    }
  }
  return data;
}

MetaInfo MetaInfo::make_synthetic(std::string name, DataSize total_size,
                                  std::uint64_t content_seed,
                                  bool hash_pieces, DataSize piece_length) {
  P2PLAB_ASSERT(total_size.count_bytes() > 0);
  P2PLAB_ASSERT(piece_length.count_bytes() % kBlockLength == 0);
  MetaInfo meta;
  meta.name = std::move(name);
  meta.total_size = total_size;
  meta.piece_length = piece_length;
  meta.content_seed = content_seed;

  std::string pieces_blob;
  if (hash_pieces) {
    meta.piece_hashes.reserve(meta.piece_count());
    for (std::uint32_t p = 0; p < meta.piece_count(); ++p) {
      const auto data = meta.generate_piece(p);
      meta.piece_hashes.push_back(Sha1::hash(data));
      pieces_blob.append(
          reinterpret_cast<const char*>(meta.piece_hashes.back().data()), 20);
    }
  } else {
    // The infohash must still be stable and unique per torrent; stand in
    // for the 20N-byte pieces string with a seed-derived marker.
    std::uint64_t sm = content_seed;
    pieces_blob = "unhashed:" + std::to_string(splitmix64(sm));
  }

  // The bencoded info dict, keys in sorted order as bencode requires.
  auto bytes = [](const std::string& s) {
    return std::to_string(s.size()) + ":" + s;
  };
  meta.info_hash = Sha1::hash(
      "d6:lengthi" + std::to_string(total_size.count_bytes()) + "e4:name" +
      bytes(meta.name) + "12:piece lengthi" +
      std::to_string(piece_length.count_bytes()) + "e6:pieces" +
      bytes(pieces_blob) + "e");
  return meta;
}

}  // namespace p2plab::bt
