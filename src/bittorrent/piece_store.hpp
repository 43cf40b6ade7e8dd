// Per-client piece/block storage state.
//
// Tracks which blocks of which pieces have arrived; a piece is had once
// all of its blocks are. Content is synthetic (metainfo.hpp), so no piece
// is hashed or verified.
#pragma once

#include <cstdint>
#include <vector>

#include "bittorrent/bitfield.hpp"
#include "bittorrent/metainfo.hpp"

namespace p2plab::bt {

class PieceStore {
 public:
  explicit PieceStore(const MetaInfo& meta);

  /// Mark every piece present (seeders).
  void fill_complete();

  const Bitfield& have() const { return have_; }
  bool complete() const { return have_.all(); }
  std::uint32_t piece_count() const { return meta_->piece_count(); }
  DataSize bytes_downloaded() const { return DataSize::bytes(bytes_down_); }
  double fraction_complete() const;

  bool have_piece(std::uint32_t piece) const { return have_.get(piece); }
  bool have_block(std::uint32_t piece, std::uint32_t block) const;
  std::uint32_t blocks_received(std::uint32_t piece) const;

  enum class BlockResult {
    kDuplicate,       // already had it
    kAccepted,        // stored, piece still incomplete
    kPieceComplete,   // stored and the piece is now had
  };

  /// Record an arriving block.
  BlockResult add_block(std::uint32_t piece, std::uint32_t block);

 private:
  const MetaInfo* meta_;
  Bitfield have_;
  std::vector<Bitfield> blocks_;  // per piece
  std::uint64_t bytes_down_ = 0;
};

}  // namespace p2plab::bt
