#include "bittorrent/download.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace p2plab::bt {

Download::Download(const MetaInfo& meta, Rng rng)
    : meta_(&meta),
      rng_(rng),
      blocks_per_full_piece_(static_cast<std::uint32_t>(
          (meta.piece_length.count_bytes() + kBlockLength - 1) /
          kBlockLength)),
      last_piece_blocks_(meta.blocks_in_piece(meta.piece_count() - 1)),
      total_blocks_(std::uint64_t{blocks_per_full_piece_} *
                        (meta.piece_count() - 1) +
                    last_piece_blocks_),
      have_(meta.piece_count()),
      blocks_(std::size_t{blocks_per_full_piece_} * meta.piece_count(), 0),
      pieces_(meta.piece_count()) {
  // Piece::received/outstanding and the per-block request count are narrow.
  P2PLAB_ASSERT(blocks_per_full_piece_ <= 0xffff);
  candidates_.reserve(meta.piece_count());
}

void Download::fill_complete() {
  have_.set_all();
  std::fill(blocks_.begin(), blocks_.end(), kReceived);
  for (std::uint32_t p = 0; p < piece_count(); ++p) {
    pieces_[p].received = static_cast<std::uint16_t>(blocks_in(p));
    pieces_[p].outstanding = 0;
  }
  blocks_received_ = total_blocks_;
  blocks_requested_ = 0;
}

Download::BlockResult Download::add_block(BlockRef ref) {
  P2PLAB_ASSERT(ref.piece < piece_count());
  P2PLAB_ASSERT(ref.block < blocks_in(ref.piece));
  std::uint8_t& state = at(ref);
  if (state == kReceived) return BlockResult::kDuplicate;

  Piece& piece = pieces_[ref.piece];
  if (state > 0) {
    --piece.outstanding;
    --blocks_requested_;
  }
  state = kReceived;
  ++piece.received;
  ++blocks_received_;
  bytes_down_ += meta_->block_size(ref.piece, ref.block);
  if (piece.received < blocks_in(ref.piece)) return BlockResult::kAccepted;
  have_.set(ref.piece);
  return BlockResult::kPieceComplete;
}

void Download::peer_has(std::uint32_t piece) {
  P2PLAB_ASSERT(piece < piece_count());
  ++pieces_[piece].availability;
}

void Download::peer_has_bitfield(const Bitfield& have) {
  P2PLAB_ASSERT(have.size() == piece_count());
  for (std::uint32_t p = 0; p < have.size(); ++p) {
    if (have.get(p)) ++pieces_[p].availability;
  }
}

void Download::peer_lost(const Bitfield& have) {
  P2PLAB_ASSERT(have.size() == piece_count());
  for (std::uint32_t p = 0; p < have.size(); ++p) {
    if (have.get(p)) {
      P2PLAB_ASSERT(pieces_[p].availability > 0);
      --pieces_[p].availability;
    }
  }
}

void Download::on_requested(BlockRef ref) {
  std::uint8_t& state = at(ref);
  P2PLAB_ASSERT(state < kReceived - 1);  // never re-requests a held block
  if (state++ == 0) {
    ++pieces_[ref.piece].outstanding;
    ++blocks_requested_;
  }
}

void Download::on_request_discarded(BlockRef ref) {
  std::uint8_t& state = at(ref);
  // Already released, or the block arrived meanwhile.
  if (state == 0 || state == kReceived) return;
  if (--state == 0) {
    --pieces_[ref.piece].outstanding;
    --blocks_requested_;
  }
}

std::uint32_t Download::first_free_block(std::uint32_t piece) const {
  for (std::uint32_t b = 0; b < blocks_in(piece); ++b) {
    if (blocks_[row(piece) + b] == 0) return b;
  }
  P2PLAB_ASSERT_MSG(false, "first_free_block on a piece with none free");
  return 0;
}

std::optional<BlockRef> Download::pick(const Bitfield& peer_have) {
  // One pass serves both tiers. Strict priority: a piece with progress
  // (received or requested blocks) is finished before any new piece is
  // started; ties on availability among those are broken by a coin flip
  // in index order. Only while no such piece qualifies are fresh pieces
  // collected: all of them until we own a first complete piece (random
  // first), the rarest after.
  const bool random_first = have_.none();
  std::optional<std::uint32_t> best_partial;
  std::uint32_t best_partial_avail = 0;
  std::uint32_t min_avail = ~std::uint32_t{0};
  candidates_.clear();
  for (std::uint32_t p = 0; p < piece_count(); ++p) {
    if (!has_free_block(p) || !peer_have.get(p)) continue;
    const Piece& piece = pieces_[p];
    if (piece.received > 0 || piece.outstanding > 0) {
      if (!best_partial || piece.availability < best_partial_avail ||
          (piece.availability == best_partial_avail && rng_.chance(0.5))) {
        best_partial = p;
        best_partial_avail = piece.availability;
      }
      continue;
    }
    if (best_partial) continue;
    if (!random_first && piece.availability < min_avail) {
      min_avail = piece.availability;
      candidates_.clear();
    }
    if (random_first || piece.availability == min_avail) {
      candidates_.push_back(p);
    }
  }
  if (best_partial) {
    return BlockRef{*best_partial, first_free_block(*best_partial)};
  }
  if (candidates_.empty()) return std::nullopt;
  const std::uint32_t piece = candidates_[rng_.uniform(candidates_.size())];
  return BlockRef{piece, first_free_block(piece)};
}

}  // namespace p2plab::bt
