#include "bittorrent/client.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "metrics/recorder.hpp"

namespace p2plab::bt {

namespace {

constexpr std::uint32_t key_of(Ipv4Addr ip) { return ip.to_u32(); }

// BitTorrent 4.x client constants (DESIGN.md §6).
constexpr std::uint16_t kListenPort = 6881;
constexpr int kMaxConnections = 55;
constexpr int kMaxInitiate = 40;
constexpr Duration kRechokeInterval = Duration::sec(10);
constexpr std::uint32_t kNumwant = 50;
/// No block for this long despite outstanding requests => snubbed, and the
/// stalled requests are released for re-picking.
constexpr Duration kSnubTimeout = Duration::sec(60);
constexpr int kMaxBacklog = 16;  // request pipeline depth ceiling
/// A block may be requested from at most this many peers at once during
/// endgame (caps duplicate traffic, like production clients do).
constexpr std::uint32_t kEndgameMaxDuplication = 2;
/// Announce-retry jitter: +/- this fraction of the backoff delay.
constexpr double kAnnounceRetryJitter = 0.25;

}  // namespace

void Client::bind_metrics(metrics::Registry& reg) {
  metrics_.announces = reg.counter("bt.announces");
  metrics_.piece_completions = reg.counter("bt.piece_completions");
  metrics_.torrent_completions = reg.counter("bt.torrent_completions");
  metrics_.chokes_sent = reg.counter("bt.chokes_sent");
  metrics_.unchokes_sent = reg.counter("bt.unchokes_sent");
  // Rate buckets span dial-up to past the 128 KiB/s access links of the
  // paper's reference scenario (bytes per second).
  const std::vector<double> rate_bounds{0,     4096,   16384,  65536,
                                        131072, 262144, 1048576};
  metrics_.peer_down_rate_bps = reg.histogram("bt.peer_down_rate_bps",
                                              rate_bounds);
  metrics_.peer_up_rate_bps = reg.histogram("bt.peer_up_rate_bps",
                                            rate_bounds);
}

Client::Client(sim::Simulation& sim, sockets::SocketApi& api,
               const MetaInfo& meta, PeerInfo tracker, bool start_as_seed,
               Rng rng)
    : sim_(&sim),
      api_(&api),
      meta_(&meta),
      tracker_(tracker),
      rng_(rng),
      download_(meta, rng.fork(1)),
      was_seed_at_start_(start_as_seed),
      progress_("progress"),
      down_series_("bytes_down") {
  if (start_as_seed) download_.fill_complete();
}

Client::~Client() {
  if (started_) stop();
}

void Client::start() {
  P2PLAB_ASSERT(!started_);
  started_ = true;
  listener_ = api_->listen(
      kListenPort, [this](sockets::StreamSocketPtr sock) {
        if (static_cast<int>(peers_.size()) >= kMaxConnections) {
          sock->close();
          return;
        }
        add_peer(std::move(sock), /*initiated=*/false);
      });
  announce(AnnounceEvent::kStarted);
  // Desynchronize choker ticks across clients (the real platform's clients
  // start at different wall-clock instants).
  const Duration first_tick = Duration::ns(static_cast<std::int64_t>(
      rng_.uniform(static_cast<std::uint64_t>(
          kRechokeInterval.count_ns()))));
  rechoke_task_.start(*sim_, kRechokeInterval, first_tick,
                      [this] { rechoke(); });
  announce_task_.start(*sim_, kAnnounceInterval, kAnnounceInterval,
                       [this] { announce(AnnounceEvent::kPeriodic); });
}

void Client::stop() {
  if (!started_) return;
  started_ = false;
  rechoke_task_.stop();
  announce_task_.stop();
  sim_->cancel(refill_event_);
  refill_event_ = sim::EventId{};
  sim_->cancel(announce_retry_event_);
  announce_retry_event_ = sim::EventId{};
  announce(AnnounceEvent::kStopped);
  while (!peers_.empty()) {
    remove_peer(peers_.begin()->first, /*close_socket=*/true);
  }
  if (listener_) listener_->stop_accepting();
  listener_.reset();
}

void Client::crash() {
  if (!started_) return;
  started_ = false;
  rechoke_task_.stop();
  announce_task_.stop();
  sim_->cancel(refill_event_);
  refill_event_ = sim::EventId{};
  sim_->cancel(announce_retry_event_);
  announce_retry_event_ = sim::EventId{};
  announce_failures_streak_ = 0;
  // No "stopped" announce, no socket closes: the platform's crash_vnode
  // already aborted every socket at our address, so releasing them here
  // sends nothing. Session state dies; download_ survives like a resume
  // file for a later start().
  while (!peers_.empty()) {
    remove_peer(peers_.begin()->first, /*close_socket=*/false,
                /*refill=*/false);
  }
  dialing_.clear();
  initiated_connections_ = 0;
  known_peers_.clear();
  if (listener_) listener_->stop_accepting();
  listener_.reset();
}

std::vector<Client::PeerDebug> Client::debug_peers() {
  std::vector<PeerDebug> out;
  for (auto& [key, peer] : peers_) {
    out.push_back(PeerDebug{
        .ip = peer.ip,
        .am_choking = peer.am_choking,
        .am_interested = peer.am_interested,
        .peer_choking = peer.peer_choking,
        .peer_interested = peer.peer_interested,
        .inflight = peer.inflight.size(),
        .upload_queue = peer.upload_queue.size(),
        .sock_unsent = peer.sock->unsent_bytes(),
        .down_rate_bps = peer.down_rate.rate_bps(sim_->now()),
        .up_rate_bps = peer.up_rate.rate_bps(sim_->now())});
  }
  return out;
}

// ------------------------------------------------------------ connections

void Client::announce(AnnounceEvent event) {
  ++stats_.announces;
  metrics_.announces.inc();
  api_->connect(
      tracker_.ip, tracker_.port,
      [this, event](sockets::StreamSocketPtr sock) {
        // Death before a response (tracker crashed mid-request, connection
        // reset) counts as an announce failure. Weak capture: the close
        // handler must not keep the socket alive.
        std::weak_ptr<sockets::StreamSocket> weak = sock;
        sock->on_close([this, event, weak] {
          if (const auto s = weak.lock()) s->on_message(nullptr);
          on_announce_failure(event);
        });
        sock->on_message([this, sock](sockets::Message&& msg) {
          if (msg.type !=
              static_cast<std::uint32_t>(MsgType::kTrackerResponse)) {
            return;
          }
          announce_failures_streak_ = 0;
          sock->on_close(nullptr);
          handle_tracker_response(msg.as<TrackerResponseMsg>().response);
          sock->close();
        });
        AnnounceRequest request;
        request.info_hash = meta_->info_hash;
        request.peer = PeerInfo{ip(), kListenPort};
        request.event = event;
        request.numwant = kNumwant;
        sockets::Message msg;
        msg.type = static_cast<std::uint32_t>(MsgType::kTrackerAnnounce);
        msg.size = announce_request_wire_size();
        msg.body = std::make_shared<const TrackerAnnounceMsg>(
            TrackerAnnounceMsg{request});
        sock->send(std::move(msg));
      },
      [this, event] { on_announce_failure(event); });
}

Duration Client::announce_backoff() const {
  if (announce_failures_streak_ == 0) return Duration::zero();
  // base * 2^(streak-1), saturating at the cap (shift bounded first so the
  // multiply cannot overflow).
  const std::uint32_t doublings =
      std::min<std::uint32_t>(announce_failures_streak_ - 1, 16);
  const Duration raw =
      kAnnounceRetryBase * static_cast<std::int64_t>(1u << doublings);
  return std::min(raw, kAnnounceRetryCap);
}

void Client::on_announce_failure(AnnounceEvent event) {
  ++stats_.announce_failures;
  if (!started_) return;  // farewell announce: nobody left to retry for
  ++announce_failures_streak_;
  P2PLAB_TRACE(sim_->now(), "bt", "announce_failed",
               {{"ip", ip().to_string()},
                {"streak", announce_failures_streak_}});
  // Graceful degradation: fall back on the cached peer list from earlier
  // responses — the swarm outlives its tracker.
  connect_more();
  if (announce_retry_event_.valid()) return;  // a retry is already pending
  const double jitter =
      1.0 + kAnnounceRetryJitter * (2.0 * rng_.uniform01() - 1.0);
  const Duration delay = announce_backoff().scaled(jitter);
  announce_retry_event_ = sim_->schedule_after(delay, [this, event] {
    announce_retry_event_ = sim::EventId{};
    if (!started_) return;
    ++stats_.announce_retries;
    announce(event);
  });
}

void Client::handle_tracker_response(const AnnounceResponse& response) {
  if (!started_) return;
  if (announce_retry_event_.valid()) {
    // A parallel announce (periodic tick) got through first; the backoff
    // retry is moot.
    sim_->cancel(announce_retry_event_);
    announce_retry_event_ = sim::EventId{};
  }
  for (const PeerInfo& info : response.peers) {
    if (info.ip == ip()) continue;
    const bool known =
        std::any_of(known_peers_.begin(), known_peers_.end(),
                    [&](const PeerInfo& p) { return p.ip == info.ip; });
    if (!known) known_peers_.push_back(info);
  }
  connect_more();
}

void Client::connect_more() {
  for (const PeerInfo& info : known_peers_) {
    // initiated_connections_ counts dials in progress plus established
    // outgoing connections; kMaxConnections bounds the total.
    if (initiated_connections_ >= kMaxInitiate) break;
    if (peers_.size() + dialing_.size() >=
        static_cast<std::size_t>(kMaxConnections)) {
      break;
    }
    const std::uint32_t key = key_of(info.ip);
    if (peers_.count(key) != 0 || dialing_.count(key) != 0) continue;
    dialing_.insert(key);
    ++initiated_connections_;
    api_->connect(
        info.ip, info.port,
        [this, key](sockets::StreamSocketPtr sock) {
          dialing_.erase(key);
          if (!started_) {
            --initiated_connections_;
            sock->close();
            return;
          }
          add_peer(std::move(sock), /*initiated=*/true);
        },
        [this, key] {
          dialing_.erase(key);
          --initiated_connections_;
        });
  }
}

Client::Peer* Client::add_peer(sockets::StreamSocketPtr sock, bool initiated) {
  const std::uint32_t key = key_of(sock->remote_ip());

  if (Peer* existing = find_peer(key)) {
    // Simultaneous open: both sides dialed. Deterministic tie-break — keep
    // the connection initiated by the lower-IP side, on both ends.
    const bool keep_mine_dialed = ip() < sock->remote_ip();
    const bool existing_is_mine = existing->initiated;
    const bool new_is_mine = initiated;
    const bool keep_new = (new_is_mine == keep_mine_dialed) &&
                          (existing_is_mine != keep_mine_dialed);
    if (!keep_new) {
      if (initiated) --initiated_connections_;
      sock->on_message(nullptr);
      sock->on_close(nullptr);
      sock->close();
      return existing;
    }
    // No refill here: the winning connection is inserted right below, and
    // a synchronous connect_more() would re-dial this very peer while the
    // map entry is momentarily absent (dial/collide/re-dial livelock).
    remove_peer(key, /*close_socket=*/true, /*refill=*/false);
  }

  Peer* raw = &peers_.try_emplace(key).first->second;
  raw->sock = std::move(sock);
  raw->ip = raw->sock->remote_ip();
  raw->initiated = initiated;
  raw->have = Bitfield(meta_->piece_count());
  raw->last_block_at = sim_->now();

  sockets::StreamSocket* sock_id = raw->sock.get();
  raw->sock->on_message([this, key, sock_id](sockets::Message&& msg) {
    Peer* p = find_peer(key);
    if (p == nullptr || p->sock.get() != sock_id) return;  // superseded
    if (msg.type >= static_cast<std::uint32_t>(MsgType::kTrackerAnnounce)) {
      return;  // not a peer-wire message
    }
    on_wire(key, msg.as<WireMsg>());
  });
  raw->sock->on_close([this, key, sock_id] {
    Peer* p = find_peer(key);
    if (p == nullptr || p->sock.get() != sock_id) return;
    remove_peer(key, /*close_socket=*/false);
  });
  raw->sock->on_writable(kUploadWatermark, [this, key, sock_id] {
    Peer* p = find_peer(key);
    if (p == nullptr || p->sock.get() != sock_id) return;
    pump_uploads(*p);
  });

  // Both sides open with handshake (+ bitfield when non-empty).
  WireMsg handshake;
  handshake.type = MsgType::kHandshake;
  handshake.info_hash = meta_->info_hash;
  handshake.peer_id = key_of(ip());
  send_msg(*raw, std::move(handshake));
  raw->handshake_sent = true;
  if (download_.have().count() > 0) {
    WireMsg bitfield;
    bitfield.type = MsgType::kBitfield;
    bitfield.bitfield = download_.have();
    send_msg(*raw, std::move(bitfield));
  }
  return raw;
}

void Client::remove_peer(std::uint32_t key, bool close_socket, bool refill) {
  const auto it = peers_.find(key);
  if (it == peers_.end()) return;
  Peer& peer = it->second;
  // Release the requests we were waiting on from this peer.
  const bool had_inflight = !peer.inflight.empty();
  for (const Peer::Outstanding& out : peer.inflight) {
    download_.on_request_discarded(out.ref);
  }
  if (peer.handshake_rx) download_.peer_lost(peer.have);
  if (peer.initiated) --initiated_connections_;
  peer.sock->on_message(nullptr);
  peer.sock->on_close(nullptr);
  if (close_socket) peer.sock->close();
  peers_.erase(it);
  if (refill && started_ && !refill_event_.valid()) {
    refill_event_ = sim_->schedule_after(Duration::sec(2), [this] {
      refill_event_ = sim::EventId{};
      if (started_) connect_more();
    });
  }
  // The dead peer's blocks went back to the picker; hand them to the
  // surviving peers now (see sweep_requests).
  if (started_ && had_inflight) sweep_requests();
}

Client::Peer* Client::find_peer(std::uint32_t key) {
  const auto it = peers_.find(key);
  return it == peers_.end() ? nullptr : &it->second;
}

// ----------------------------------------------------------------- wiring

void Client::send_msg(Peer& peer, WireMsg msg) {
  if (msg.type == MsgType::kPiece) {
    stats_.bytes_up += msg.length;
    peer.up_rate.add(sim_->now(), msg.length);
  }
  peer.sock->send(to_socket_message(std::move(msg)));
}

void Client::on_wire(std::uint32_t key, const WireMsg& msg) {
  Peer* peer = find_peer(key);
  if (peer == nullptr) return;
  if (!peer->handshake_rx) {
    if (msg.type != MsgType::kHandshake) {
      remove_peer(key, /*close_socket=*/true);  // protocol violation
      return;
    }
    on_handshake(*peer, msg);
    return;
  }
  switch (msg.type) {
    case MsgType::kHandshake:
      break;  // duplicate; ignore
    case MsgType::kChoke: {
      peer->peer_choking = true;
      // Outstanding requests are void once choked.
      const bool had_inflight = !peer->inflight.empty();
      for (const Peer::Outstanding& out : peer->inflight) {
        download_.on_request_discarded(out.ref);
      }
      peer->inflight.clear();
      if (had_inflight) sweep_requests();
      break;
    }
    case MsgType::kUnchoke:
      peer->peer_choking = false;
      try_request(*peer);
      break;
    case MsgType::kInterested:
      peer->peer_interested = true;
      break;
    case MsgType::kNotInterested:
      peer->peer_interested = false;
      break;
    case MsgType::kHave:
      if (msg.piece < meta_->piece_count() && !peer->have.get(msg.piece)) {
        peer->have.set(msg.piece);
        download_.peer_has(msg.piece);
        update_interest(*peer);
        if (!peer->peer_choking) try_request(*peer);
      }
      break;
    case MsgType::kBitfield:
      if (msg.bitfield.size() == meta_->piece_count() &&
          peer->have.count() == 0) {
        peer->have = msg.bitfield;
        download_.peer_has_bitfield(peer->have);
        update_interest(*peer);
        if (!peer->peer_choking) try_request(*peer);
      }
      break;
    case MsgType::kRequest: {
      if (peer->am_choking) break;  // requests while choked are dropped
      if (msg.piece >= meta_->piece_count() ||
          !download_.have_piece(msg.piece)) {
        break;
      }
      peer->upload_queue.push_back({msg.piece, msg.begin, msg.length});
      pump_uploads(*peer);
      break;
    }
    case MsgType::kPiece:
      on_piece_msg(*peer, msg);
      break;
    case MsgType::kCancel: {
      // Retract the request if it has not been served yet (endgame).
      auto& queue = peer->upload_queue;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        if (queue[i].piece == msg.piece && queue[i].begin == msg.begin) {
          queue.erase(i);
          break;
        }
      }
      break;
    }
    default:
      break;
  }
}

void Client::on_handshake(Peer& peer, const WireMsg& msg) {
  if (msg.info_hash != meta_->info_hash) {
    remove_peer(key_of(peer.ip), /*close_socket=*/true);
    return;
  }
  peer.handshake_rx = true;
  // An empty bitfield is implicit; availability starts at zero and HAVEs
  // update it. (peer.have was registered as all-zero at add time.)
}

void Client::on_piece_msg(Peer& peer, const WireMsg& msg) {
  if (msg.piece >= meta_->piece_count()) return;
  const std::uint32_t block = msg.begin / kBlockLength;
  if (block >= meta_->blocks_in_piece(msg.piece)) return;
  const BlockRef ref{msg.piece, block};

  const auto inflight_it = std::find_if(
      peer.inflight.begin(), peer.inflight.end(),
      [&](const Peer::Outstanding& out) { return out.ref == ref; });
  if (inflight_it != peer.inflight.end()) peer.inflight.erase(inflight_it);

  peer.last_block_at = sim_->now();
  peer.down_rate.add(sim_->now(), msg.length);
  stats_.bytes_down += msg.length;

  const auto result = download_.add_block(ref);
  switch (result) {
    case Download::BlockResult::kDuplicate:
      ++stats_.duplicate_blocks;
      break;
    case Download::BlockResult::kAccepted:
      cancel_duplicates(ref, key_of(peer.ip));
      break;
    case Download::BlockResult::kPieceComplete: {
      cancel_duplicates(ref, key_of(peer.ip));
      metrics_.piece_completions.inc();
      progress_.add(sim_->now(), 100.0 * download_.fraction_complete());
      down_series_.add(
          sim_->now(),
          static_cast<double>(download_.bytes_downloaded().count_bytes()));
      broadcast_have(msg.piece);
      for (auto& [k, p] : peers_) update_interest(p);
      if (download_.complete()) on_torrent_complete();
      break;
    }
  }
  try_request(peer);
}

void Client::update_interest(Peer& peer) {
  const bool want = !download_.complete() &&
                    download_.have().other_has_missing(peer.have);
  if (want == peer.am_interested) return;
  peer.am_interested = want;
  WireMsg msg;
  msg.type = want ? MsgType::kInterested : MsgType::kNotInterested;
  send_msg(peer, std::move(msg));
}

int Client::backlog_for(Peer& peer) {
  const double rate = peer.down_rate.rate_bps(sim_->now());
  const int dynamic = 2 + static_cast<int>(rate / kBlockLength);
  return std::clamp(dynamic, 4, kMaxBacklog);
}

void Client::try_request(Peer& peer) {
  if (download_.complete() || peer.peer_choking || !peer.am_interested) return;
  const int backlog = backlog_for(peer);

  while (static_cast<int>(peer.inflight.size()) < backlog) {
    std::optional<BlockRef> ref = download_.pick(peer.have);
    if (!ref && download_.all_missing_requested()) {
      // Endgame: re-request missing blocks from this peer too.
      ref = download_.first_missing(
          peer.have, kEndgameMaxDuplication, [&](const BlockRef& candidate) {
            return std::any_of(peer.inflight.begin(), peer.inflight.end(),
                               [&](const Peer::Outstanding& out) {
                                 return out.ref == candidate;
                               });
          });
    }
    if (!ref) return;
    download_.on_requested(*ref);
    peer.inflight.push_back(Peer::Outstanding{*ref, sim_->now()});
    WireMsg request;
    request.type = MsgType::kRequest;
    request.piece = ref->piece;
    request.begin = ref->block * kBlockLength;
    request.length = meta_->block_size(ref->piece, ref->block);
    send_msg(peer, std::move(request));
  }
}

void Client::sweep_requests() {
  if (download_.complete()) return;
  for (auto& [key, peer] : peers_) {
    if (peer.handshake_rx && !peer.peer_choking) try_request(peer);
  }
}

void Client::pump_uploads(Peer& peer) {
  // Serve queued requests only while the socket's send buffer is shallow:
  // blocks not yet handed to the transport can still be retracted by a
  // CHOKE or CANCEL, exactly like the real client's upload queue.
  while (!peer.upload_queue.empty() &&
         peer.sock->unsent_bytes() <= kUploadWatermark.count_bytes()) {
    const Peer::Request request = peer.upload_queue.front();
    peer.upload_queue.pop_front();
    WireMsg piece;
    piece.type = MsgType::kPiece;
    piece.piece = request.piece;
    piece.begin = request.begin;
    piece.length = request.length;
    send_msg(peer, std::move(piece));
  }
}

void Client::broadcast_have(std::uint32_t piece) {
  for (auto& [key, peer] : peers_) {
    if (!peer.handshake_rx) continue;
    WireMsg have;
    have.type = MsgType::kHave;
    have.piece = piece;
    send_msg(peer, std::move(have));
  }
}

void Client::cancel_duplicates(BlockRef ref, std::uint32_t except_key) {
  for (auto& [key, peer] : peers_) {
    if (key == except_key) continue;
    const auto it = std::find_if(
        peer.inflight.begin(), peer.inflight.end(),
        [&](const Peer::Outstanding& out) { return out.ref == ref; });
    if (it == peer.inflight.end()) continue;
    peer.inflight.erase(it);
    WireMsg cancel;
    cancel.type = MsgType::kCancel;
    cancel.piece = ref.piece;
    cancel.begin = ref.block * kBlockLength;
    cancel.length = meta_->block_size(ref.piece, ref.block);
    send_msg(peer, std::move(cancel));
  }
}

void Client::on_torrent_complete() {
  if (!was_seed_at_start_ && !completed_at_) {
    completed_at_ = sim_->now();
    metrics_.torrent_completions.inc();
    P2PLAB_TRACE(sim_->now(), "bt", "torrent_complete",
                 {{"ip", ip().to_string()},
                  {"bytes_down", stats_.bytes_down},
                  {"bytes_up", stats_.bytes_up}});
    announce(AnnounceEvent::kCompleted);
    P2PLAB_LOG_INFO("client %s completed at %s", ip().to_string().c_str(),
                    sim_->now().to_string().c_str());
  }
}

// ---------------------------------------------------------------- choking

bool Client::is_snubbed(Peer& peer) const {
  if (peer.inflight.empty()) return false;
  const SimTime oldest = peer.inflight.front().requested_at;
  const SimTime now = sim_->now();
  return now - oldest > kSnubTimeout &&
         now - peer.last_block_at > kSnubTimeout;
}

void Client::release_stalled_requests(Peer& peer) {
  const SimTime now = sim_->now();
  auto it = peer.inflight.begin();
  while (it != peer.inflight.end()) {
    if (now - it->requested_at > kSnubTimeout) {
      download_.on_request_discarded(it->ref);
      it = peer.inflight.erase(it);
    } else {
      ++it;
    }
  }
}

void Client::rechoke() {
  std::vector<PeerSnapshot> snapshot;
  snapshot.reserve(peers_.size());
  const bool seeding = download_.complete();
  for (auto& [key, peer] : peers_) {
    if (!peer.handshake_rx) continue;
    const bool snubbed = is_snubbed(peer);
    if (snubbed) release_stalled_requests(peer);
    metrics_.peer_down_rate_bps.record(peer.down_rate.rate_bps(sim_->now()));
    metrics_.peer_up_rate_bps.record(peer.up_rate.rate_bps(sim_->now()));
    snapshot.push_back(PeerSnapshot{
        .key = key,
        .interested = peer.peer_interested,
        .snubbed = snubbed,
        .rate_bps = seeding ? peer.up_rate.rate_bps(sim_->now())
                            : peer.down_rate.rate_bps(sim_->now())});
  }
  const std::vector<PeerKey> unchoked =
      choker_.rechoke(sim_->now(), snapshot, rng_);

  for (auto& [key, peer] : peers_) {
    if (!peer.handshake_rx) continue;
    const bool should_unchoke =
        std::find(unchoked.begin(), unchoked.end(), key) != unchoked.end();
    if (should_unchoke && peer.am_choking) {
      metrics_.unchokes_sent.inc();
      peer.am_choking = false;
      WireMsg msg;
      msg.type = MsgType::kUnchoke;
      send_msg(peer, std::move(msg));
    } else if (!should_unchoke && !peer.am_choking) {
      metrics_.chokes_sent.inc();
      peer.am_choking = true;
      peer.upload_queue.clear();  // unserved requests die with the choke
      WireMsg msg;
      msg.type = MsgType::kChoke;
      send_msg(peer, std::move(msg));
    }
  }
  // Safety net for the download tail: any blocks released above (stalled
  // requests of snubbed peers) or still parked since a peer died must get
  // re-requested even when no PIECE arrival will trigger it.
  sweep_requests();
}

}  // namespace p2plab::bt
