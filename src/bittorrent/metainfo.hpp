// Torrent metainfo (.torrent content).
//
// BitTorrent divides the file into pieces (256 KiB in the client the paper
// uses: "the file is always divided in pieces of 256 KB"). The real
// client names a torrent by its infohash, a 20-byte digest of the
// bencoded info dictionary. Here the name only has to tell swarms apart,
// so that a handshake or an announce for another torrent is refused, and
// a 64-bit id does that. The handshake still costs its real 68 bytes on
// the wire (wire.hpp).
//
// Content is synthetic and never materialised: a block on the wire is its
// coordinates and size, so no payload bytes are copied through the
// simulated network.
#pragma once

#include <cstdint>

#include "common/units.hpp"

namespace p2plab::bt {

inline constexpr std::uint32_t kBlockLength = 16 * 1024;  // request granularity
/// The paper's piece size. Rao et al. (PAPERS.md) find cluster BitTorrent
/// results sensitive to such modelling constants: ablate it here.
inline constexpr DataSize kPieceLength = DataSize::kib(256);

struct MetaInfo {
  DataSize total_size;
  DataSize piece_length = kPieceLength;
  std::uint64_t info_hash = 0;  // the torrent's id

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

  /// Build a torrent of kPieceLength pieces for a synthetic file. The id
  /// is stable and unique per torrent: the same (size, seed) always gives
  /// the same id, and another seed or another size gives another.
  static MetaInfo make_synthetic(DataSize total_size,
                                 std::uint64_t content_seed);
};

}  // namespace p2plab::bt
