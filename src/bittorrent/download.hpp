// A client's download table: which blocks it holds, which it has asked
// for, and the BitTorrent 4.x piece policy that picks the next request.
//
//  - Until the first piece completes, pieces are picked at random (getting
//    *some* complete piece fast matters more than rarity).
//  - Partially downloaded/requested pieces have strict priority (finish
//    what is started so it can be shared).
//  - Otherwise pick among the rarest pieces (minimum availability over the
//    connected peers), breaking ties randomly.
//  - Endgame: once every missing block is requested somewhere, remaining
//    blocks may be requested from multiple peers at once (the client sends
//    CANCELs when a duplicate arrives).
//
// Every block has one byte in a flat table indexed `piece *
// blocks_per_full_piece + block`: kReceived once it arrived, else the
// number of peers it is outstanding at. Per piece the table keeps the
// received and outstanding block counts and the availability, so a piece
// still has an unrequested block iff received + outstanding < its block
// count. Content is synthetic (metainfo.hpp), so no piece is hashed or
// verified.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "bittorrent/bitfield.hpp"
#include "bittorrent/metainfo.hpp"

namespace p2plab::bt {

struct BlockRef {
  std::uint32_t piece = 0;
  std::uint32_t block = 0;
  bool operator==(const BlockRef&) const = default;
};

class Download {
 public:
  Download(const MetaInfo& meta, Rng rng);

  /// Mark every piece present (seeders). Counts no downloaded bytes.
  void fill_complete();

  // -- what we hold -----------------------------------------------------------
  const Bitfield& have() const { return have_; }
  bool complete() const { return have_.all(); }
  std::uint32_t piece_count() const { return have_.size(); }
  DataSize bytes_downloaded() const { return DataSize::bytes(bytes_down_); }
  /// Received blocks over all blocks: block granularity keeps progress
  /// curves smooth (the paper's Figure 8 plots "percentage of the file
  /// transferred").
  double fraction_complete() const {
    return static_cast<double>(blocks_received_) /
           static_cast<double>(total_blocks_);
  }
  bool have_piece(std::uint32_t piece) const { return have_.get(piece); }
  bool have_block(BlockRef ref) const { return at(ref) == kReceived; }
  std::uint32_t blocks_received(std::uint32_t piece) const {
    return pieces_[piece].received;
  }

  enum class BlockResult {
    kDuplicate,       // already had it
    kAccepted,        // stored, piece still incomplete
    kPieceComplete,   // stored and the piece is now had
  };

  /// Record an arriving block; its outstanding requests are void.
  BlockResult add_block(BlockRef ref);

  // -- availability bookkeeping (from HAVE/BITFIELD/peer departure) --------
  void peer_has(std::uint32_t piece);
  void peer_has_bitfield(const Bitfield& have);
  void peer_lost(const Bitfield& have);
  std::uint32_t availability(std::uint32_t piece) const {
    return pieces_[piece].availability;
  }

  // -- request bookkeeping --------------------------------------------------
  void on_requested(BlockRef ref);
  /// A request was discarded without a block arriving (choke, peer loss,
  /// snub release): the block becomes pickable again.
  void on_request_discarded(BlockRef ref);

  /// Pick the next block to request from a peer advertising `peer_have`.
  /// Returns nullopt when every block this peer could give us is already
  /// held or requested — the endgame trigger.
  std::optional<BlockRef> pick(const Bitfield& peer_have);

  /// Endgame: the first missing block (not yet received) the peer has, in
  /// (piece, block) order, that is outstanding at fewer than `max_requests`
  /// peers and that `skip` does not reject (the caller skips blocks it
  /// already requested from this same peer). Allocates nothing.
  template <typename Skip>
  std::optional<BlockRef> first_missing(const Bitfield& peer_have,
                                        std::uint32_t max_requests,
                                        Skip&& skip) const {
    for (std::uint32_t p = 0; p < piece_count(); ++p) {
      if (have_.get(p) || !peer_have.get(p)) continue;
      for (std::uint32_t b = 0; b < blocks_in(p); ++b) {
        const BlockRef ref{p, b};
        const std::uint8_t state = at(ref);
        if (state == kReceived || state >= max_requests || skip(ref)) {
          continue;
        }
        return ref;
      }
    }
    return std::nullopt;
  }

  /// True once no unrequested missing block remains anywhere.
  bool all_missing_requested() const {
    return blocks_received_ + blocks_requested_ == total_blocks_;
  }

  /// Outstanding request count for one block (endgame duplication cap).
  std::uint32_t request_count(BlockRef ref) const {
    const std::uint8_t state = at(ref);
    return state == kReceived ? 0 : state;
  }

  /// The generator behind pick()'s tie-breaks; tests pin its draw sequence.
  const Rng& rng() const { return rng_; }

 private:
  static constexpr std::uint8_t kReceived = 0xff;

  struct Piece {
    std::uint32_t availability = 0;
    std::uint16_t received = 0;     // blocks held
    std::uint16_t outstanding = 0;  // blocks requested, not yet held
  };

  std::uint32_t blocks_in(std::uint32_t piece) const {
    return piece + 1 == piece_count() ? last_piece_blocks_
                                      : blocks_per_full_piece_;
  }
  std::size_t row(std::uint32_t piece) const {
    return std::size_t{piece} * blocks_per_full_piece_;
  }
  std::uint8_t& at(BlockRef ref) {
    return blocks_[row(ref.piece) + ref.block];
  }
  std::uint8_t at(BlockRef ref) const {
    return blocks_[row(ref.piece) + ref.block];
  }
  /// Some block of `piece` is neither held nor requested.
  bool has_free_block(std::uint32_t piece) const {
    const Piece& state = pieces_[piece];
    return state.received + state.outstanding < blocks_in(piece);
  }
  std::uint32_t first_free_block(std::uint32_t piece) const;

  const MetaInfo* meta_;
  Rng rng_;
  std::uint32_t blocks_per_full_piece_;
  std::uint32_t last_piece_blocks_;
  std::uint64_t total_blocks_;
  Bitfield have_;
  std::vector<std::uint8_t> blocks_;  // [piece * blocks_per_full_piece_ + b]
  std::vector<Piece> pieces_;
  /// pick()'s fresh-piece candidates; sized once so a pick never allocates.
  std::vector<std::uint32_t> candidates_;
  std::uint64_t blocks_received_ = 0;
  std::uint64_t blocks_requested_ = 0;  // blocks with outstanding requests
  std::uint64_t bytes_down_ = 0;
};

}  // namespace p2plab::bt
