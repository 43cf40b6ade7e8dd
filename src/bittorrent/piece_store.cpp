#include "bittorrent/piece_store.hpp"

#include "common/assert.hpp"

namespace p2plab::bt {

PieceStore::PieceStore(const MetaInfo& meta)
    : meta_(&meta), have_(meta.piece_count()) {
  blocks_.reserve(meta.piece_count());
  for (std::uint32_t p = 0; p < meta.piece_count(); ++p) {
    blocks_.emplace_back(meta.blocks_in_piece(p));
  }
}

void PieceStore::fill_complete() {
  have_.set_all();
  for (auto& piece_blocks : blocks_) piece_blocks.set_all();
}

double PieceStore::fraction_complete() const {
  // Count at block granularity so progress curves are smooth (the paper's
  // Figure 8 plots "percentage of the file transferred").
  std::uint64_t got = 0;
  std::uint64_t total = 0;
  for (std::uint32_t p = 0; p < meta_->piece_count(); ++p) {
    got += blocks_[p].count();
    total += blocks_[p].size();
  }
  return total == 0 ? 0.0
                    : static_cast<double>(got) / static_cast<double>(total);
}

bool PieceStore::have_block(std::uint32_t piece, std::uint32_t block) const {
  return blocks_[piece].get(block);
}

std::uint32_t PieceStore::blocks_received(std::uint32_t piece) const {
  return blocks_[piece].count();
}

PieceStore::BlockResult PieceStore::add_block(std::uint32_t piece,
                                              std::uint32_t block) {
  P2PLAB_ASSERT(piece < meta_->piece_count());
  P2PLAB_ASSERT(block < meta_->blocks_in_piece(piece));
  if (blocks_[piece].get(block)) return BlockResult::kDuplicate;

  blocks_[piece].set(block);
  bytes_down_ += meta_->block_size(piece, block);
  if (!blocks_[piece].all()) return BlockResult::kAccepted;
  have_.set(piece);
  return BlockResult::kPieceComplete;
}

}  // namespace p2plab::bt
