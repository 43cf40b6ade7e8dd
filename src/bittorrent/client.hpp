// The BitTorrent client.
//
// A faithful model of the BitTorrent 4.x client the paper runs (written by
// Bram Cohen; "slightly modified to allow data collection — a time-stamp
// was added to the default output"): tracker announces, peer wire
// protocol, rarest-first piece picking with strict priority and endgame,
// tit-for-tat choking with a 30 s optimistic slot, snubbing, and seeding
// after completion ("when the clients have finished the download of the
// file, they stay online and become seeders").
//
// The client runs *unmodified* on the emulation platform — it only talks
// to the sockets API of its virtual node, which is the paper's whole
// point: study the real application in a synthetic environment.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <optional>
#include <vector>

#include "common/fifo.hpp"
#include "common/rng.hpp"
#include "metrics/registry.hpp"
#include "metrics/timeseries.hpp"
#include "bittorrent/choker.hpp"
#include "bittorrent/metainfo.hpp"
#include "bittorrent/download.hpp"
#include "bittorrent/rate.hpp"
#include "bittorrent/tracker.hpp"
#include "bittorrent/wire.hpp"
#include "sim/simulation.hpp"
#include "sockets/socket.hpp"

namespace p2plab::bt {

// The client's BitTorrent 4.x constants (DESIGN.md §6) live beside their
// one point of use in client.cpp; these three are read by tests too.

/// Upload pacing: pump the next block once the peer's socket holds at most
/// this much unacknowledged PIECE data (2-3 blocks in transport — enough
/// pipeline to cover the ack round trip). Further requests wait in the
/// upload queue, where a CHOKE or CANCEL can still retract them (matching
/// the real client's behaviour). Larger values bloat the access-link queues
/// and stall the choker's rate estimates.
inline constexpr DataSize kUploadWatermark = DataSize::kib(32);
/// Failed announces retry with exponential backoff: base * 2^(n-1), capped,
/// with jitter (client.cpp) to desynchronize the swarm's retry storm when
/// a tracker outage ends.
inline constexpr Duration kAnnounceRetryBase = Duration::sec(5);
inline constexpr Duration kAnnounceRetryCap = Duration::sec(300);

struct ClientStats {
  std::uint64_t bytes_down = 0;
  std::uint64_t bytes_up = 0;
  std::uint64_t duplicate_blocks = 0;  // endgame cost
  std::uint64_t announces = 0;
  std::uint64_t announce_failures = 0;  // tracker unreachable / no reply
  std::uint64_t announce_retries = 0;   // backoff retries fired
};

/// Shared "bt.*" registry handles; the same cells aggregate every client
/// in a swarm (Swarm::bind_metrics binds seeders and leechers alike).
struct BtMetrics {
  metrics::Counter announces;
  metrics::Counter piece_completions;
  metrics::Counter torrent_completions;
  metrics::Counter chokes_sent;
  metrics::Counter unchokes_sent;
  metrics::Histogram peer_down_rate_bps;  // sampled at each rechoke
  metrics::Histogram peer_up_rate_bps;
};

class Client {
 public:
  Client(sim::Simulation& sim, sockets::SocketApi& api, const MetaInfo& meta,
         PeerInfo tracker, bool start_as_seed, Rng rng);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void start();
  void stop();
  /// kill -9: drop all session state with no goodbyes — no CHOKEs, FINs or
  /// "stopped" announce. Call under Platform::crash_vnode (which silences
  /// the sockets); downloaded pieces survive like on-disk data, so a
  /// subsequent start() resumes the download, modelling a process restart.
  void crash();

  /// Current announce-retry backoff delay (zero when healthy); for tests.
  Duration announce_backoff() const;

  Ipv4Addr ip() const { return api_->effective_bind_address(); }
  bool started() const { return started_; }
  bool complete() const { return download_.complete(); }
  bool has_completed() const { return completed_at_.has_value(); }
  SimTime completion_time() const { return *completed_at_; }
  double fraction_complete() const { return download_.fraction_complete(); }
  std::size_t peer_count() const { return peers_.size(); }
  const ClientStats& stats() const { return stats_; }

  /// Timestamped download progress in percent — the paper's data
  /// collection hook (Figures 8 and 10).
  const metrics::TimeSeries& progress() const { return progress_; }
  /// Timestamped cumulative payload bytes received (Figure 9's series).
  const metrics::TimeSeries& bytes_down_series() const { return down_series_; }

  /// Resolve "bt.*" handles from `reg`; every bound client shares cells.
  void bind_metrics(metrics::Registry& reg);

  /// Peer-state snapshot for diagnostics and tests.
  struct PeerDebug {
    Ipv4Addr ip;
    bool am_choking, am_interested, peer_choking, peer_interested;
    std::size_t inflight, upload_queue;
    std::uint64_t sock_unsent;
    double down_rate_bps, up_rate_bps;
  };
  std::vector<PeerDebug> debug_peers();

 private:
  struct Peer {
    sockets::StreamSocketPtr sock;
    Ipv4Addr ip;
    bool initiated = false;  // we dialed out
    bool handshake_sent = false;
    bool handshake_rx = false;
    Bitfield have;
    bool am_choking = true;
    bool am_interested = false;
    bool peer_choking = true;
    bool peer_interested = false;
    RateEstimator down_rate;  // payload from them to us
    RateEstimator up_rate;    // payload from us to them
    struct Outstanding {
      BlockRef ref;
      SimTime requested_at;
    };
    std::vector<Outstanding> inflight;  // requests we sent them
    struct Request {
      std::uint32_t piece = 0;
      std::uint32_t begin = 0;
      std::uint32_t length = 0;
    };
    Fifo<Request> upload_queue;  // their requests awaiting service
    SimTime last_block_at;
  };

  // -- connection management ----------------------------------------------
  void announce(AnnounceEvent event);
  void handle_tracker_response(const AnnounceResponse& response);
  void on_announce_failure(AnnounceEvent event);
  void connect_more();
  Peer* add_peer(sockets::StreamSocketPtr sock, bool initiated);
  void remove_peer(std::uint32_t key, bool close_socket,
                   bool refill = true);
  Peer* find_peer(std::uint32_t key);

  // -- protocol --------------------------------------------------------------
  void send_msg(Peer& peer, WireMsg msg);
  void on_wire(std::uint32_t key, const WireMsg& msg);
  void on_handshake(Peer& peer, const WireMsg& msg);
  void on_piece_msg(Peer& peer, const WireMsg& msg);
  void update_interest(Peer& peer);
  void try_request(Peer& peer);
  /// Re-drive requests on every unchoked peer. Run after blocks are
  /// re-queued (peer death, choke, stalled-request release): without it the
  /// re-queued blocks sit unrequested until the next PIECE arrival, which
  /// near the end of a download may never come (the wedge under churn).
  void sweep_requests();
  int backlog_for(Peer& peer);
  void pump_uploads(Peer& peer);
  void broadcast_have(std::uint32_t piece);
  void cancel_duplicates(BlockRef ref, std::uint32_t except_key);
  void on_torrent_complete();

  // -- choking ----------------------------------------------------------------
  void rechoke();
  bool is_snubbed(Peer& peer) const;
  void release_stalled_requests(Peer& peer);

  sim::Simulation* sim_;
  sockets::SocketApi* api_;
  const MetaInfo* meta_;
  PeerInfo tracker_;
  Rng rng_;

  Download download_;
  Choker choker_;

  bool started_ = false;
  bool was_seed_at_start_ = false;
  std::optional<SimTime> completed_at_;

  sockets::ListenerPtr listener_;
  std::map<std::uint32_t, Peer> peers_;  // key: ip u32
  std::vector<PeerInfo> known_peers_;
  std::set<std::uint32_t> dialing_;  // dials awaiting connect/fail
  int initiated_connections_ = 0;    // dials in progress + established out

  sim::PeriodicTask rechoke_task_;
  sim::PeriodicTask announce_task_;
  /// Pending backoff retry after a failed announce (at most one).
  sim::EventId announce_retry_event_;
  std::uint32_t announce_failures_streak_ = 0;
  /// Refills after a disconnect are delayed (and coalesced): re-dialing the
  /// instant a FIN arrives races the winner SYN of a simultaneous-open
  /// tie-break and causes useless connection churn.
  sim::EventId refill_event_;

  ClientStats stats_;
  BtMetrics metrics_;
  metrics::TimeSeries progress_;
  metrics::TimeSeries down_series_;
};

}  // namespace p2plab::bt
