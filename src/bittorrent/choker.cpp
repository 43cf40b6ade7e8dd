#include "bittorrent/choker.hpp"

#include <algorithm>

namespace p2plab::bt {
namespace {

/// BitTorrent 4.x rotates the optimistic slot every 30 s.
constexpr Duration kOptimisticInterval = Duration::sec(30);

}  // namespace

std::vector<PeerKey> Choker::rechoke(SimTime now,
                                     const std::vector<PeerSnapshot>& peers,
                                     Rng& rng) {
  std::vector<PeerKey> unchoked;
  constexpr int kRegularSlots = kUnchokeSlots - 1;

  // Regular slots: best-rate interested, non-snubbed peers.
  std::vector<const PeerSnapshot*> ranked;
  for (const PeerSnapshot& p : peers) {
    if (p.interested && !p.snubbed) ranked.push_back(&p);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const PeerSnapshot* a, const PeerSnapshot* b) {
                     return a->rate_bps > b->rate_bps;
                   });
  for (int i = 0; i < kRegularSlots && i < static_cast<int>(ranked.size());
       ++i) {
    unchoked.push_back(ranked[static_cast<size_t>(i)]->key);
  }

  // Optimistic slot: rotate every kOptimisticInterval among interested
  // peers not already unchoked.
  const bool optimistic_still_valid = [&] {
    if (optimistic_ == kNoPeer) return false;
    for (const PeerSnapshot& p : peers) {
      if (p.key == optimistic_) return p.interested;
    }
    return false;  // peer left
  }();
  const bool rotate = !optimistic_still_valid ||
                      now - optimistic_since_ >= kOptimisticInterval;
  if (rotate) {
    std::vector<PeerKey> candidates;
    for (const PeerSnapshot& p : peers) {
      if (!p.interested) continue;
      if (std::find(unchoked.begin(), unchoked.end(), p.key) !=
          unchoked.end()) {
        continue;
      }
      candidates.push_back(p.key);
    }
    if (candidates.empty()) {
      optimistic_ = kNoPeer;
    } else {
      optimistic_ = candidates[rng.uniform(candidates.size())];
      optimistic_since_ = now;
    }
  }
  if (optimistic_ != kNoPeer &&
      std::find(unchoked.begin(), unchoked.end(), optimistic_) ==
          unchoked.end()) {
    unchoked.push_back(optimistic_);
  }
  return unchoked;
}

}  // namespace p2plab::bt
