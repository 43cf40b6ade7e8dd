// The choking algorithm ("Incentives build robustness in BitTorrent").
//
// Every 10 s the client re-decides which peers may download from it:
//   - 3 regular slots go to the interested peers with the best transfer
//     rate (download rate towards us while leeching — tit-for-tat; upload
//     rate from us while seeding, distributing capacity to fast sinks);
//   - 1 optimistic slot rotates every 30 s to a random interested choked
//     peer, discovering better partners and bootstrapping newcomers;
//   - peers that stopped sending despite outstanding requests ("snubbed")
//     are excluded from regular slots.
// The choker is a pure policy object: the client feeds it a snapshot and
// applies the returned unchoke set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace p2plab::bt {

using PeerKey = std::uint64_t;
inline constexpr PeerKey kNoPeer = 0;

/// BitTorrent 4.x: 3 regular slots + 1 optimistic.
inline constexpr int kUnchokeSlots = 4;

struct PeerSnapshot {
  PeerKey key = kNoPeer;
  bool interested = false;
  bool snubbed = false;
  double rate_bps = 0.0;  // down-rate (leeching) or up-rate (seeding)
};

class Choker {
 public:
  PeerKey optimistic() const { return optimistic_; }

  /// Decide the unchoke set. Deterministic given the rng state.
  std::vector<PeerKey> rechoke(SimTime now,
                               const std::vector<PeerSnapshot>& peers,
                               Rng& rng);

 private:
  PeerKey optimistic_ = kNoPeer;
  SimTime optimistic_since_;
};

}  // namespace p2plab::bt
