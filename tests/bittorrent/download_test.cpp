// Download: the per-client block table and piece policy. The PieceStoreTest
// and PickerTest cases pin the storage and policy behaviour one at a time;
// Download.PickMatchesTwoPassReference replays random operation sequences
// against the two-class design it replaced (a per-piece Bitfield store and
// a two-pass picker with per-piece request-count vectors, kept verbatim
// below) and demands the same answers and the same random draws.
#include "bittorrent/download.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <set>
#include <vector>

namespace p2plab::bt {
namespace {

Bitfield full_bitfield(std::uint32_t pieces) {
  Bitfield bf(pieces);
  bf.set_all();
  return bf;
}

// ------------------------------------------------------------ storage

class PieceStoreTest : public ::testing::Test {
 protected:
  // 1 MiB, 256 KiB pieces -> 4 pieces of 16 blocks.
  MetaInfo meta = MetaInfo::make_synthetic(DataSize::mib(1), 5);
  Download download{meta, Rng{1}};
};

TEST_F(PieceStoreTest, StartsEmpty) {
  EXPECT_FALSE(download.complete());
  EXPECT_EQ(download.have().count(), 0u);
  EXPECT_DOUBLE_EQ(download.fraction_complete(), 0.0);
  EXPECT_EQ(download.bytes_downloaded(), DataSize::zero());
}

TEST_F(PieceStoreTest, FillCompleteMakesSeed) {
  download.fill_complete();
  EXPECT_TRUE(download.complete());
  EXPECT_DOUBLE_EQ(download.fraction_complete(), 1.0);
  EXPECT_TRUE(download.have_block(BlockRef{3, 15}));
  EXPECT_TRUE(download.all_missing_requested());
  EXPECT_FALSE(download.pick(full_bitfield(meta.piece_count())).has_value());
}

TEST_F(PieceStoreTest, BlockAccumulationCompletesPiece) {
  for (std::uint32_t b = 0; b < 15; ++b) {
    EXPECT_EQ(download.add_block(BlockRef{0, b}),
              Download::BlockResult::kAccepted);
  }
  EXPECT_FALSE(download.have_piece(0));
  EXPECT_EQ(download.blocks_received(0), 15u);
  EXPECT_EQ(download.add_block(BlockRef{0, 15}),
            Download::BlockResult::kPieceComplete);
  EXPECT_TRUE(download.have_piece(0));
  EXPECT_EQ(download.bytes_downloaded(), DataSize::kib(256));
}

TEST_F(PieceStoreTest, DuplicateBlockDetected) {
  download.add_block(BlockRef{1, 3});
  EXPECT_EQ(download.add_block(BlockRef{1, 3}),
            Download::BlockResult::kDuplicate);
  EXPECT_EQ(download.blocks_received(1), 1u);
}

TEST_F(PieceStoreTest, FractionCountsBlocks) {
  for (std::uint32_t b = 0; b < 16; ++b) download.add_block(BlockRef{0, b});
  for (std::uint32_t b = 0; b < 8; ++b) download.add_block(BlockRef{1, b});
  // 24 of 64 blocks.
  EXPECT_NEAR(download.fraction_complete(), 24.0 / 64.0, 1e-12);
}

// ------------------------------------------------------------- policy

class PickerTest : public ::testing::Test {
 protected:
  // 8 pieces of 4 blocks (512 KiB, 64 KiB pieces): finer than the
  // swarm's kPieceLength, so the picker has pieces to choose between.
  MetaInfo meta = [] {
    MetaInfo m = MetaInfo::make_synthetic(DataSize::kib(512), 1);
    m.piece_length = DataSize::kib(64);
    return m;
  }();
  Download picker{meta, Rng{3}};

  Bitfield full_have() { return full_bitfield(meta.piece_count()); }

  void complete_piece(std::uint32_t p) {
    for (std::uint32_t b = 0; b < meta.blocks_in_piece(p); ++b) {
      picker.add_block(BlockRef{p, b});
    }
  }
};

TEST_F(PickerTest, AvailabilityBookkeeping) {
  picker.peer_has(3);
  picker.peer_has(3);
  EXPECT_EQ(picker.availability(3), 2u);
  Bitfield have(meta.piece_count());
  have.set(3);
  have.set(5);
  picker.peer_has_bitfield(have);
  EXPECT_EQ(picker.availability(3), 3u);
  EXPECT_EQ(picker.availability(5), 1u);
  picker.peer_lost(have);
  EXPECT_EQ(picker.availability(3), 2u);
  EXPECT_EQ(picker.availability(5), 0u);
}

TEST_F(PickerTest, PicksOnlyWhatPeerHas) {
  Bitfield have(meta.piece_count());
  have.set(6);
  picker.peer_has_bitfield(have);
  const auto ref = picker.pick(have);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->piece, 6u);
}

TEST_F(PickerTest, NothingToPickFromEmptyPeer) {
  Bitfield have(meta.piece_count());
  EXPECT_FALSE(picker.pick(have).has_value());
}

TEST_F(PickerTest, RarestFirstAfterFirstPiece) {
  // Complete piece 0 so random-first mode ends.
  complete_piece(0);
  // Piece 2 is rare (availability 1), the rest are common (3).
  for (std::uint32_t p = 1; p < meta.piece_count(); ++p) {
    picker.peer_has(p);
    picker.peer_has(p);
    if (p != 2) picker.peer_has(p);
  }
  const auto ref = picker.pick(full_have());
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->piece, 2u);
}

TEST_F(PickerTest, StrictPriorityFinishesStartedPieces) {
  complete_piece(0);
  // Start piece 5 (one block received), make piece 3 much rarer.
  picker.peer_has(5);
  picker.peer_has(5);
  picker.peer_has(5);
  picker.peer_has(3);
  picker.add_block(BlockRef{5, 0});
  const auto ref = picker.pick(full_have());
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->piece, 5u);  // partial beats rare
  EXPECT_EQ(ref->block, 1u);
}

TEST_F(PickerTest, RequestedBlocksNotRepicked) {
  const Bitfield have = full_have();
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  // Pick every block in the torrent once.
  for (std::uint32_t i = 0; i < 32; ++i) {
    const auto ref = picker.pick(have);
    ASSERT_TRUE(ref.has_value()) << i;
    EXPECT_TRUE(seen.emplace(ref->piece, ref->block).second)
        << "block picked twice";
    picker.on_requested(*ref);
  }
  EXPECT_FALSE(picker.pick(have).has_value());
  EXPECT_TRUE(picker.all_missing_requested());
}

TEST_F(PickerTest, DiscardMakesBlockPickableAgain) {
  const Bitfield have = full_have();
  const auto ref = picker.pick(have);
  ASSERT_TRUE(ref.has_value());
  picker.on_requested(*ref);
  picker.on_request_discarded(*ref);
  // With random-first picking the same piece may or may not come back, but
  // the block must be reachable again: drain all picks and count.
  std::size_t picked = 0;
  while (const auto next = picker.pick(have)) {
    picker.on_requested(*next);
    ++picked;
  }
  EXPECT_EQ(picked, 32u);  // every block still reachable exactly once
}

TEST_F(PickerTest, EndgameMissingBlocks) {
  const Bitfield have = full_have();
  const auto skip_none = [](const BlockRef&) { return false; };
  // Request everything.
  while (auto ref = picker.pick(have)) picker.on_requested(*ref);
  EXPECT_TRUE(picker.all_missing_requested());
  // Nothing received yet: the first missing block is the first block.
  EXPECT_EQ(picker.first_missing(have, 2, skip_none), (BlockRef{0, 0}));
  // The caller's own filter passes a block over...
  EXPECT_EQ(picker.first_missing(have, 2,
                                 [](const BlockRef& ref) {
                                   return ref == BlockRef{0, 0};
                                 }),
            (BlockRef{0, 1}));
  // ...and so does the duplication cap.
  picker.on_requested(BlockRef{0, 0});
  EXPECT_EQ(picker.first_missing(have, 2, skip_none), (BlockRef{0, 1}));
  // Receive a block: it leaves the missing set and its request clears.
  picker.add_block(BlockRef{0, 1});
  EXPECT_EQ(picker.first_missing(have, 2, skip_none), (BlockRef{0, 2}));
  EXPECT_EQ(picker.request_count(BlockRef{0, 1}), 0u);
  EXPECT_TRUE(picker.all_missing_requested());
  // A peer without pieces has nothing to give.
  EXPECT_FALSE(picker.first_missing(Bitfield(meta.piece_count()), 2,
                                    skip_none)
                   .has_value());
}

TEST_F(PickerTest, CompletedPiecesNeverPicked) {
  complete_piece(0);
  complete_piece(1);
  Bitfield have(meta.piece_count());
  have.set(0);
  have.set(1);
  EXPECT_FALSE(picker.pick(have).has_value());
}

TEST_F(PickerTest, DuplicateDiscardIsSafe) {
  const auto ref = BlockRef{2, 1};
  picker.on_requested(ref);
  picker.on_request_discarded(ref);
  picker.on_request_discarded(ref);  // double release must not underflow
  EXPECT_EQ(picker.request_count(ref), 0u);
  EXPECT_FALSE(picker.all_missing_requested());
  picker.add_block(ref);  // receipt without request is fine
  picker.on_request_discarded(ref);  // release after receipt is a no-op
  EXPECT_TRUE(picker.have_block(ref));
}

TEST_F(PickerTest, RandomFirstPieceSpreadsChoice) {
  // Before any piece completes, picks should not always start at piece 0.
  std::set<std::uint32_t> picked_pieces;
  for (int trial = 0; trial < 30; ++trial) {
    Download fresh(meta, Rng{static_cast<std::uint64_t>(trial)});
    const auto ref = fresh.pick(full_have());
    ASSERT_TRUE(ref.has_value());
    picked_pieces.insert(ref->piece);
  }
  EXPECT_GT(picked_pieces.size(), 3u);
}

// ------------------------------------------------ two-pass reference

namespace reference {

class PieceStore {
 public:
  explicit PieceStore(const MetaInfo& meta)
      : meta_(&meta), have_(meta.piece_count()) {
    for (std::uint32_t p = 0; p < meta.piece_count(); ++p) {
      blocks_.emplace_back(meta.blocks_in_piece(p));
    }
  }

  const Bitfield& have() const { return have_; }
  DataSize bytes_downloaded() const { return DataSize::bytes(bytes_down_); }
  double fraction_complete() const {
    std::uint64_t got = 0;
    std::uint64_t total = 0;
    for (std::uint32_t p = 0; p < meta_->piece_count(); ++p) {
      got += blocks_[p].count();
      total += blocks_[p].size();
    }
    return total == 0 ? 0.0
                      : static_cast<double>(got) / static_cast<double>(total);
  }
  bool have_piece(std::uint32_t piece) const { return have_.get(piece); }
  bool have_block(std::uint32_t piece, std::uint32_t block) const {
    return blocks_[piece].get(block);
  }
  std::uint32_t blocks_received(std::uint32_t piece) const {
    return blocks_[piece].count();
  }

  Download::BlockResult add_block(std::uint32_t piece, std::uint32_t block) {
    if (blocks_[piece].get(block)) return Download::BlockResult::kDuplicate;
    blocks_[piece].set(block);
    bytes_down_ += meta_->block_size(piece, block);
    if (!blocks_[piece].all()) return Download::BlockResult::kAccepted;
    have_.set(piece);
    return Download::BlockResult::kPieceComplete;
  }

 private:
  const MetaInfo* meta_;
  Bitfield have_;
  std::vector<Bitfield> blocks_;
  std::uint64_t bytes_down_ = 0;
};

class PiecePicker {
 public:
  PiecePicker(const MetaInfo& meta, const PieceStore& store, Rng rng)
      : meta_(&meta), store_(&store), rng_(rng) {
    availability_.assign(meta.piece_count(), 0);
    outstanding_per_piece_.assign(meta.piece_count(), 0);
    request_counts_.resize(meta.piece_count());
    for (std::uint32_t p = 0; p < meta.piece_count(); ++p) {
      request_counts_[p].assign(meta.blocks_in_piece(p), 0);
    }
  }

  const Rng& rng() const { return rng_; }

  void peer_has(std::uint32_t piece) { ++availability_[piece]; }
  void peer_has_bitfield(const Bitfield& have) {
    for (std::uint32_t p = 0; p < have.size(); ++p) {
      if (have.get(p)) ++availability_[p];
    }
  }
  void peer_lost(const Bitfield& have) {
    for (std::uint32_t p = 0; p < have.size(); ++p) {
      if (have.get(p)) --availability_[p];
    }
  }
  std::uint32_t availability(std::uint32_t piece) const {
    return availability_[piece];
  }

  void on_requested(BlockRef ref) {
    if (request_counts_[ref.piece][ref.block]++ == 0) {
      ++outstanding_per_piece_[ref.piece];
    }
  }
  void on_request_discarded(BlockRef ref) {
    std::uint8_t& count = request_counts_[ref.piece][ref.block];
    if (count == 0) return;
    if (--count == 0) --outstanding_per_piece_[ref.piece];
  }
  void on_block_received(BlockRef ref) {
    std::uint8_t& count = request_counts_[ref.piece][ref.block];
    if (count > 0) {
      count = 0;
      --outstanding_per_piece_[ref.piece];
    }
  }

  std::optional<BlockRef> pick(const Bitfield& peer_have) {
    const std::uint32_t n = meta_->piece_count();
    std::optional<std::uint32_t> best_partial;
    std::uint32_t best_partial_avail = 0;
    for (std::uint32_t p = 0; p < n; ++p) {
      if (store_->have_piece(p)) continue;
      const bool active =
          store_->blocks_received(p) > 0 || outstanding_per_piece_[p] > 0;
      if (!active || !piece_pickable(p, peer_have)) continue;
      if (!best_partial || availability_[p] < best_partial_avail ||
          (availability_[p] == best_partial_avail && rng_.chance(0.5))) {
        best_partial = p;
        best_partial_avail = availability_[p];
      }
    }
    if (best_partial) {
      return BlockRef{*best_partial, *first_unrequested_block(*best_partial)};
    }
    std::vector<std::uint32_t> candidates;
    std::uint32_t min_avail = ~std::uint32_t{0};
    const bool random_first = store_->have().count() == 0;
    for (std::uint32_t p = 0; p < n; ++p) {
      if (!piece_pickable(p, peer_have)) continue;
      if (random_first) {
        candidates.push_back(p);
        continue;
      }
      if (availability_[p] < min_avail) {
        min_avail = availability_[p];
        candidates.clear();
      }
      if (availability_[p] == min_avail) candidates.push_back(p);
    }
    if (candidates.empty()) return std::nullopt;
    const std::uint32_t piece = candidates[rng_.uniform(candidates.size())];
    return BlockRef{piece, *first_unrequested_block(piece)};
  }

  std::vector<BlockRef> missing_blocks(const Bitfield& peer_have) const {
    std::vector<BlockRef> missing;
    for (std::uint32_t p = 0; p < meta_->piece_count(); ++p) {
      if (store_->have_piece(p) || !peer_have.get(p)) continue;
      for (std::uint32_t b = 0; b < request_counts_[p].size(); ++b) {
        if (!store_->have_block(p, b)) missing.push_back(BlockRef{p, b});
      }
    }
    return missing;
  }

  bool all_missing_requested() const {
    for (std::uint32_t p = 0; p < meta_->piece_count(); ++p) {
      if (store_->have_piece(p)) continue;
      for (std::uint32_t b = 0; b < request_counts_[p].size(); ++b) {
        if (request_counts_[p][b] == 0 && !store_->have_block(p, b)) {
          return false;
        }
      }
    }
    return true;
  }

  std::uint32_t request_count(BlockRef ref) const {
    return request_counts_[ref.piece][ref.block];
  }

 private:
  bool piece_pickable(std::uint32_t piece, const Bitfield& peer_have) const {
    return peer_have.get(piece) && !store_->have_piece(piece) &&
           first_unrequested_block(piece).has_value();
  }
  std::optional<std::uint32_t> first_unrequested_block(
      std::uint32_t piece) const {
    for (std::uint32_t b = 0; b < request_counts_[piece].size(); ++b) {
      if (request_counts_[piece][b] == 0 && !store_->have_block(piece, b)) {
        return b;
      }
    }
    return std::nullopt;
  }

  const MetaInfo* meta_;
  const PieceStore* store_;
  Rng rng_;
  std::vector<std::uint32_t> availability_;
  std::vector<std::vector<std::uint8_t>> request_counts_;
  std::vector<std::uint32_t> outstanding_per_piece_;
};

}  // namespace reference

// The client's endgame cap: a block is outstanding at two peers at most.
constexpr std::uint32_t kMaxRequests = 2;

/// Which regimes the replays reached, so a generator change cannot quietly
/// stop exercising one.
struct Coverage {
  int random_first_picks = 0;  // no piece owned yet
  int rarest_first_picks = 0;  // fresh piece picked after the first
  int partial_picks = 0;       // strict priority
  int endgame_states = 0;      // nothing left unrequested, pieces missing
};

/// One random operation sequence on a torrent with a short last piece,
/// applied to both designs; every observable must agree after every step.
void replay(std::uint64_t seed, Coverage& seen) {
  Rng gen(seed);
  MetaInfo meta = MetaInfo::make_synthetic(DataSize::kib(1), seed);
  meta.piece_length = DataSize::kib(16 * (1 + gen.uniform(4)));  // 1-4 blocks
  const std::uint64_t pieces = 2 + gen.uniform(23);
  const std::uint64_t short_tail =
      1 + gen.uniform(meta.piece_length.count_bytes() - 1);
  meta.total_size = DataSize::bytes(
      (pieces - 1) * meta.piece_length.count_bytes() + short_tail);
  const std::uint32_t n = meta.piece_count();
  ASSERT_EQ(n, pieces);
  ASSERT_LT(meta.piece_size(n - 1), meta.piece_length.count_bytes());

  const Rng picker_rng = gen.fork(1);
  Download download(meta, picker_rng);
  reference::PieceStore store(meta);
  reference::PiecePicker picker(meta, store, picker_rng);

  std::vector<BlockRef> blocks;
  for (std::uint32_t p = 0; p < n; ++p) {
    for (std::uint32_t b = 0; b < meta.blocks_in_piece(p); ++b) {
      blocks.push_back(BlockRef{p, b});
    }
  }
  const auto random_block = [&] { return blocks[gen.uniform(blocks.size())]; };
  const auto random_bitfield = [&] {
    Bitfield bf(n);
    const double density = gen.uniform01();
    for (std::uint32_t p = 0; p < n; ++p) {
      if (gen.chance(density)) bf.set(p);
    }
    return bf;
  };
  std::vector<Bitfield> peers;  // connected peers' have-maps
  const auto random_peer_have = [&] {
    return peers.empty() || gen.chance(0.2)
               ? random_bitfield()
               : peers[gen.uniform(peers.size())];
  };
  // The client's endgame query: the first missing block the peer has,
  // under the duplication cap, that the peer's own inflight filter passes.
  // The reference answer is the first such block of missing_blocks().
  const auto check_first_missing = [&] {
    const Bitfield have = random_peer_have();
    std::vector<BlockRef> inflight;  // requested from this peer already
    const double density = gen.uniform01();
    for (const BlockRef& ref : blocks) {
      if (gen.chance(density)) inflight.push_back(ref);
    }
    const auto in_flight = [&](const BlockRef& ref) {
      return std::find(inflight.begin(), inflight.end(), ref) !=
             inflight.end();
    };
    std::optional<BlockRef> want;
    for (const BlockRef& ref : picker.missing_blocks(have)) {
      if (picker.request_count(ref) < kMaxRequests && !in_flight(ref)) {
        want = ref;
        break;
      }
    }
    ASSERT_EQ(download.first_missing(have, kMaxRequests, in_flight), want);
  };

  for (int step = 0; step < 400; ++step) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " step " << step);
    switch (gen.uniform(9)) {
      case 0: {  // HAVE from a connected peer
        if (peers.empty()) break;
        Bitfield& have = peers[gen.uniform(peers.size())];
        const std::uint32_t p = static_cast<std::uint32_t>(gen.uniform(n));
        if (have.get(p)) break;
        have.set(p);
        download.peer_has(p);
        picker.peer_has(p);
        break;
      }
      case 1:  // a peer connects with its BITFIELD
        peers.push_back(random_bitfield());
        download.peer_has_bitfield(peers.back());
        picker.peer_has_bitfield(peers.back());
        break;
      case 2: {  // a peer leaves
        if (peers.empty()) break;
        const std::size_t i = gen.uniform(peers.size());
        download.peer_lost(peers[i]);
        picker.peer_lost(peers[i]);
        peers.erase(peers.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      }
      case 3: {  // a (possibly duplicate, endgame) request
        const BlockRef ref = random_block();
        if (store.have_block(ref.piece, ref.block) ||
            picker.request_count(ref) >= kMaxRequests) {
          break;
        }
        download.on_requested(ref);
        picker.on_requested(ref);
        break;
      }
      case 4: {  // a request dies unanswered (often one never sent)
        const BlockRef ref = random_block();
        download.on_request_discarded(ref);
        picker.on_request_discarded(ref);
        break;
      }
      case 5:
      case 6: {  // a block arrives, requested or not
        const BlockRef ref = random_block();
        picker.on_block_received(ref);
        ASSERT_EQ(download.add_block(ref),
                  store.add_block(ref.piece, ref.block));
        break;
      }
      case 7: {  // pick, and request what was picked as the client does
        const Bitfield have = random_peer_have();
        const std::optional<BlockRef> got = download.pick(have);
        const std::optional<BlockRef> want = picker.pick(have);
        ASSERT_EQ(got, want);
        if (got) {
          bool active = store.blocks_received(got->piece) > 0;
          for (std::uint32_t b = 0; b < meta.blocks_in_piece(got->piece);
               ++b) {
            active = active || picker.request_count({got->piece, b}) > 0;
          }
          if (active) {
            ++seen.partial_picks;
          } else if (store.have().none()) {
            ++seen.random_first_picks;
          } else {
            ++seen.rarest_first_picks;
          }
        }
        Rng next_got = download.rng();
        Rng next_want = picker.rng();
        ASSERT_EQ(next_got.next_u64(), next_want.next_u64());
        if (got && gen.chance(0.8)) {
          download.on_requested(*got);
          picker.on_requested(*want);
        }
        break;
      }
      case 8:  // the endgame query, in any state
        ASSERT_NO_FATAL_FAILURE(check_first_missing());
        break;
    }
    if (picker.all_missing_requested() && !store.have().all()) {
      ++seen.endgame_states;
      ASSERT_NO_FATAL_FAILURE(check_first_missing());
    }

    ASSERT_EQ(download.have(), store.have());
    ASSERT_EQ(download.fraction_complete(), store.fraction_complete());
    ASSERT_EQ(download.bytes_downloaded(), store.bytes_downloaded());
    ASSERT_EQ(download.all_missing_requested(),
              picker.all_missing_requested());
    for (std::uint32_t p = 0; p < n; ++p) {
      ASSERT_EQ(download.blocks_received(p), store.blocks_received(p));
      ASSERT_EQ(download.availability(p), picker.availability(p));
    }
    for (const BlockRef& ref : blocks) {
      ASSERT_EQ(download.have_block(ref),
                store.have_block(ref.piece, ref.block));
      ASSERT_EQ(download.request_count(ref), picker.request_count(ref));
    }
  }
}

TEST(Download, PickMatchesTwoPassReference) {
  Coverage seen;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    replay(seed, seen);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(seen.random_first_picks, 0);
  EXPECT_GT(seen.rarest_first_picks, 0);
  EXPECT_GT(seen.partial_picks, 0);
  EXPECT_GT(seen.endgame_states, 0);
}

}  // namespace
}  // namespace p2plab::bt
