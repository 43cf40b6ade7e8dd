// The BitTorrent tracker.
//
// Peers announce themselves per torrent id (metainfo.hpp) and receive a
// random sample of other participants (numwant, default 50). Every client
// re-announces every kAnnounceInterval, the interval a BitTorrent 4.x
// tracker hands out, so the response does not carry it.
// The real tracker speaks HTTP; ours exchanges equivalently-sized messages
// over the same stream sockets, which preserves the traffic pattern without
// an HTTP stack (the tracker is not the object of study).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/ipv4.hpp"
#include "common/rng.hpp"
#include "bittorrent/wire.hpp"
#include "sockets/socket.hpp"

namespace p2plab::bt {

enum class AnnounceEvent : std::uint8_t { kStarted, kCompleted, kStopped,
                                          kPeriodic };

struct PeerInfo {
  Ipv4Addr ip;
  std::uint16_t port = 6881;
  bool operator==(const PeerInfo&) const = default;
};

struct AnnounceRequest {
  std::uint64_t info_hash = 0;
  PeerInfo peer;
  AnnounceEvent event = AnnounceEvent::kStarted;
  std::uint32_t numwant = 50;
};

/// The re-announce interval (BitTorrent 4.x: 30 min).
inline constexpr Duration kAnnounceInterval = Duration::sec(1800);

struct AnnounceResponse {
  std::vector<PeerInfo> peers;
  std::uint32_t complete = 0;    // seeders in swarm
  std::uint32_t incomplete = 0;  // leechers in swarm
};

/// Approximate HTTP GET /announce?... request size.
inline DataSize announce_request_wire_size() { return DataSize::bytes(310); }
/// Approximate bencoded response size: headers + 6 bytes per compact peer.
inline DataSize announce_response_wire_size(std::size_t n_peers) {
  return DataSize::bytes(120 + 6 * n_peers);
}

class Tracker {
 public:
  Tracker(sockets::SocketApi& api, Rng rng);

  void start();
  Ipv4Addr ip() const { return api_->effective_bind_address(); }
  std::uint16_t port() const { return kPort; }

  /// Service fault: take the tracker offline (the listener closes, so
  /// announces are refused like a dead HTTP server) and back online. Swarm
  /// state survives an outage — real trackers restart with their DB.
  void set_online(bool online);
  bool online() const { return listener_ != nullptr; }

  std::size_t swarm_size(std::uint64_t info_hash) const;
  std::uint64_t announces_served() const { return announces_; }

  /// Policy core, exposed for tests: register the announce and build the
  /// response (random peer sample excluding the requester).
  AnnounceResponse handle_announce(const AnnounceRequest& request);

 private:
  struct Swarm {
    std::vector<PeerInfo> peers;
    std::uint32_t complete = 0;
  };

  static constexpr std::uint16_t kPort = 6969;

  sockets::SocketApi* api_;
  Rng rng_;
  sockets::ListenerPtr listener_;
  std::map<std::uint64_t, Swarm> swarms_;
  std::uint64_t announces_ = 0;
};

/// Tracker-protocol payloads carried in socket messages.
struct TrackerAnnounceMsg {
  AnnounceRequest request;
};
struct TrackerResponseMsg {
  AnnounceResponse response;
};

}  // namespace p2plab::bt
