// Torrent metainfo (.torrent content).
//
// BitTorrent divides the file into pieces (256 KiB in the client the paper
// uses: "the file is always divided in pieces of 256 KB") and stores one
// SHA-1 per piece in the metainfo's "info" dictionary; the SHA-1 of the
// bencoded info dictionary is the torrent's infohash.
//
// Content is synthetic and never materialised: a block on the wire is its
// coordinates and size, so no payload bytes are copied through the
// simulated network and no piece can fail its hash. The info dictionary's
// pieces string is a content-seed marker standing in for the per-piece
// SHA-1 list, which keeps the infohash stable and unique per torrent.
#pragma once

#include <cstdint>
#include <string>

#include "common/units.hpp"
#include "bittorrent/sha1.hpp"

namespace p2plab::bt {

inline constexpr std::uint32_t kBlockLength = 16 * 1024;  // request granularity
/// The paper's piece size. Rao et al. (PAPERS.md) find cluster BitTorrent
/// results sensitive to such modelling constants: ablate it here.
inline constexpr DataSize kPieceLength = DataSize::kib(256);

struct MetaInfo {
  std::string name;
  DataSize total_size;
  DataSize piece_length = kPieceLength;
  std::uint64_t content_seed = 0;
  Sha1Digest info_hash{};

  std::uint32_t piece_count() const {
    const std::uint64_t pl = piece_length.count_bytes();
    return static_cast<std::uint32_t>(
        (total_size.count_bytes() + pl - 1) / pl);
  }
  /// Byte size of piece `index` (the last piece may be short).
  std::uint32_t piece_size(std::uint32_t index) const;
  /// Blocks in piece `index` (16 KiB granularity, last may be short).
  std::uint32_t blocks_in_piece(std::uint32_t index) const;
  std::uint32_t block_size(std::uint32_t piece, std::uint32_t block) const;

  /// Build a torrent of kPieceLength pieces for a synthetic file; the
  /// infohash is the SHA-1 of its bencoded info dict.
  static MetaInfo make_synthetic(std::string name, DataSize total_size,
                                 std::uint64_t content_seed);
};

}  // namespace p2plab::bt
