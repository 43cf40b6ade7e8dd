#include "gossip/cluster.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/platform.hpp"

namespace p2plab::gossip {

namespace {
/// Platform-RNG stream the per-node RNGs fork from.
constexpr std::uint64_t kRngStream = 0x50a17;
}  // namespace

Node::Node(core::Platform& platform, const Config& config, std::uint32_t id,
           const std::vector<Ipv4Addr>& addrs)
    : platform_(platform),
      config_(config),
      id_(id),
      addrs_(addrs),
      table_(id, config.nodes),
      rng_(platform.rng().fork(kRngStream).fork(id)) {}

SimTime Node::now() const { return platform_.sim_of_vnode(id_).now(); }

void Node::bind_metrics(metrics::Registry& registry) {
  metrics_.pings = registry.counter("gossip.pings");
  metrics_.acks = registry.counter("gossip.acks");
  metrics_.ping_reqs = registry.counter("gossip.ping_reqs");
  metrics_.suspects = registry.counter("gossip.suspects");
  metrics_.confirms = registry.counter("gossip.confirms");
  metrics_.refutations = registry.counter("gossip.refutations");
  metrics_.joins = registry.counter("gossip.joins");
}

void Node::bind_socket() {
  sock_ = platform_.api(id_).udp_bind(kGossipPort);
  sock_->on_message(
      [this, epoch = epoch_](sockets::Message&& message, Ipv4Addr, uint16_t) {
        if (epoch != epoch_ || !running_) return;
        on_datagram(message);
      });
}

void Node::start() {
  // A fault that fired before this staggered start already owns the
  // member's lifecycle: a crash left it down, and a rejoin bound its port.
  if (epoch_ != 0) return;
  running_ = true;
  bind_socket();
  if (id_ == 0) {
    // The introducer is its own cluster of one until joiners show up.
    joined_ = true;
    metrics_.joins.inc();
    begin_ticking();
  } else {
    send_join();
  }
}

void Node::crash() {
  // Platform::crash_vnode already aborted the socket; drop our reference
  // and invalidate every scheduled callback from this life.
  ++epoch_;
  running_ = false;
  joined_ = false;
  probe_open_ = false;
  relays_.clear();
  sock_.reset();
}

void Node::stop() {
  ++epoch_;
  running_ = false;
  joined_ = false;
  probe_open_ = false;
  relays_.clear();
  if (sock_) sock_->close();
  sock_.reset();
}

void Node::restart() {
  ++epoch_;
  running_ = true;
  joined_ = false;
  probe_open_ = false;
  // The new incarnation supersedes any suspicion of the crashed one.
  table_.bump_self(now());
  bind_socket();
  if (id_ == 0) {
    joined_ = true;
    metrics_.joins.inc();
    begin_ticking();
  } else {
    send_join();
  }
}

void Node::halt() { stop(); }

void Node::send(std::uint32_t to, std::uint32_t type, Payload payload,
                bool piggyback) {
  P2PLAB_ASSERT(sock_ != nullptr);
  payload.from = id_;
  payload.from_incarnation = table_.incarnation();
  if (piggyback) table_.piggyback(kPiggybackLimit, payload);
  sockets::Message message;
  message.type = type;
  message.size = DataSize::bytes(wire_bytes(payload));
  message.body = std::make_shared<Payload>(std::move(payload));
  sock_->send_to(addrs_[to], kGossipPort, std::move(message));
}

void Node::send_join() {
  send(0, kMsgJoinReq, Payload{});
  // Retry every period until the introducer answers (it may be down or
  // the join may be lost in a burst window).
  platform_.sim_of_vnode(id_).schedule_after(
      kProtocolPeriod, [this, epoch = epoch_] {
        if (epoch != epoch_ || !running_ || joined_) return;
        send_join();
      });
}

void Node::begin_ticking() {
  platform_.sim_of_vnode(id_).schedule_after(kProtocolPeriod,
                                             [this, epoch = epoch_] {
                                               if (epoch != epoch_) return;
                                               tick();
                                             });
}

std::uint32_t Node::next_probe_target(bool* found) {
  // Round-robin over a shuffled ring (SWIM §4.3): every member is probed
  // within one traversal, giving deterministic worst-case detection time;
  // the shuffle keeps probe load spread.
  for (int rebuilds = 0; rebuilds < 2; ++rebuilds) {
    while (ring_pos_ < probe_ring_.size()) {
      const std::uint32_t candidate = probe_ring_[ring_pos_++];
      const MembershipTable::Entry& entry = table_.entry(candidate);
      if (entry.known && entry.state != MemberState::kConfirmed) {
        *found = true;
        return candidate;
      }
    }
    probe_ring_ = table_.probe_candidates();
    ring_pos_ = 0;
    rng_.shuffle(probe_ring_);
  }
  *found = false;
  return 0;
}

void Node::tick() {
  if (!running_ || !joined_) return;
  const SimTime t = now();

  // Close out the previous period's probe: no direct or relayed ack means
  // the target becomes a local suspect.
  if (probe_open_) {
    probe_open_ = false;
    if (!probe_acked_ && table_.mark_suspect(probe_target_, t)) {
      metrics_.suspects.inc();
    }
  }

  // Suspicions older than suspect_timeout become local confirms.
  for (std::uint32_t victim :
       table_.expired_suspects(t - config_.suspect_timeout)) {
    if (table_.mark_confirmed(victim, t)) {
      confirms_.push_back(ConfirmRecord{t, id_, victim});
      metrics_.confirms.inc();
    }
  }

  bool found = false;
  const std::uint32_t target = next_probe_target(&found);
  if (found) {
    probe_seq_ = ++seq_;
    probe_target_ = target;
    probe_acked_ = false;
    probe_open_ = true;
    send(target, kMsgPing, Payload{.seq = probe_seq_, .target = target});
    metrics_.pings.inc();
    platform_.sim_of_vnode(id_).schedule_after(
        kPingTimeout, [this, epoch = epoch_, seq = probe_seq_] {
          if (epoch != epoch_) return;
          fire_indirect(seq);
        });
  }

  begin_ticking();
}

void Node::fire_indirect(std::uint64_t seq) {
  if (!running_ || !probe_open_ || probe_acked_ || seq != probe_seq_) return;
  // Direct ack missing: ask k proxies to probe the target for us, so one
  // lossy/congested link cannot create a suspicion on its own.
  std::vector<std::uint32_t> candidates = table_.probe_candidates();
  candidates.erase(
      std::remove(candidates.begin(), candidates.end(), probe_target_),
      candidates.end());
  std::vector<std::uint32_t> proxies =
      rng_.sample(candidates, kIndirectProbes);
  std::sort(proxies.begin(), proxies.end());  // sample() order unspecified
  for (std::uint32_t proxy : proxies) {
    send(proxy, kMsgPingReq,
         Payload{.seq = probe_seq_, .target = probe_target_});
    metrics_.ping_reqs.inc();
  }
}

void Node::on_datagram(const sockets::Message& message) {
  const Payload& p = message.as<Payload>();
  const SimTime t = now();

  // The sender is alive at its stated incarnation; then fold in rumors.
  table_.apply(Update{p.from, MemberState::kAlive, p.from_incarnation}, t);
  for (const Update& update : p.snapshot) table_.apply(update, t);
  for (const Update& update : p.piggybacked()) table_.apply(update, t);
  if (table_.refutations() != counted_refutations_) {
    metrics_.refutations.inc(table_.refutations() - counted_refutations_);
    counted_refutations_ = table_.refutations();
  }

  switch (message.type) {
    case kMsgJoinReq: {
      // Introduce the joiner: full membership snapshot, no rumor budget
      // spent (the snapshot is not gossip, it is state transfer).
      Payload reply;
      reply.snapshot = table_.snapshot();
      send(p.from, kMsgJoinRep, std::move(reply), /*piggyback=*/false);
      break;
    }
    case kMsgJoinRep: {
      if (joined_) break;
      joined_ = true;
      metrics_.joins.inc();
      begin_ticking();
      break;
    }
    case kMsgPing: {
      send(p.from, kMsgAck, Payload{.seq = p.seq, .target = id_});
      metrics_.acks.inc();
      break;
    }
    case kMsgPingReq: {
      if (p.target == id_) {  // degenerate: we can vouch for ourselves
        send(p.from, kMsgAck, Payload{.seq = p.seq, .target = id_});
        metrics_.acks.inc();
        break;
      }
      // Probe on the requester's behalf under our own sequence number;
      // remember the mapping so the ack can be forwarded back.
      const std::uint64_t relay_seq = ++seq_;
      relays_[relay_seq] = Relay{p.from, p.seq};
      send(p.target, kMsgPing, Payload{.seq = relay_seq, .target = p.target});
      metrics_.pings.inc();
      platform_.sim_of_vnode(id_).schedule_after(
          kPingTimeout * 2, [this, epoch = epoch_, relay_seq] {
            if (epoch != epoch_) return;
            relays_.erase(relay_seq);
          });
      break;
    }
    case kMsgAck: {
      const auto relay = relays_.find(p.seq);
      if (relay != relays_.end()) {
        const Relay pending = relay->second;
        relays_.erase(relay);
        send(pending.requester, kMsgAck,
             Payload{.seq = pending.requester_seq, .target = p.target});
        metrics_.acks.inc();
      } else if (probe_open_ && p.seq == probe_seq_ &&
                 p.target == probe_target_) {
        probe_acked_ = true;
      }
      break;
    }
    default:
      break;
  }
}

Cluster::Cluster(core::Platform& platform, const Config& config)
    : platform_(platform), config_(config) {
  P2PLAB_ASSERT_MSG(config.nodes >= 2, "gossip needs at least 2 nodes");
  P2PLAB_ASSERT(config.nodes <= platform.vnode_count());
  addrs_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    addrs_.push_back(platform.api(i).effective_bind_address());
  }
  nodes_.reserve(config.nodes);
  for (std::size_t i = 0; i < config.nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(
        platform, config_, static_cast<std::uint32_t>(i), addrs_));
  }
}

void Cluster::bind_metrics() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->bind_metrics(platform_.registry_of_vnode(i));
  }
}

void Cluster::start() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node* node = nodes_[i].get();
    platform_.sim_of_vnode(i).schedule_at(
        platform_.now() + kJoinInterval * static_cast<std::int64_t>(i),
        [node] { node->start(); });
  }
}

void Cluster::schedule_halt_all() {
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node* node = nodes_[i].get();
    platform_.sim_of_vnode(i).schedule_at(platform_.now(),
                                          [node] { node->halt(); });
  }
}

std::vector<ConfirmRecord> Cluster::confirm_log() const {
  std::vector<ConfirmRecord> out;
  for (const auto& node : nodes_) {
    out.insert(out.end(), node->confirms().begin(), node->confirms().end());
  }
  std::sort(out.begin(), out.end(),
            [](const ConfirmRecord& a, const ConfirmRecord& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.observer != b.observer) return a.observer < b.observer;
              return a.victim < b.victim;
            });
  return out;
}

std::vector<std::string> Cluster::event_log() const {
  std::vector<std::string> out;
  for (const ConfirmRecord& record : confirm_log()) {
    out.push_back("confirm t=" + std::to_string(record.at.count_ns()) +
                  " obs=" + std::to_string(record.observer) +
                  " victim=" + std::to_string(record.victim));
  }
  for (const auto& node : nodes_) {
    std::string line = "node " + std::to_string(node->id()) +
                       " inc=" + std::to_string(node->table().incarnation()) +
                       " joined=" + (node->joined() ? "1" : "0") + " view=";
    for (std::uint32_t j = 0; j < nodes_.size(); ++j) {
      const MembershipTable::Entry& entry = node->table().entry(j);
      if (!entry.known) {
        line += '?';
      } else if (entry.state == MemberState::kAlive) {
        line += 'a';
      } else if (entry.state == MemberState::kSuspect) {
        line += 's';
      } else {
        line += 'd';
      }
    }
    out.push_back(std::move(line));
  }
  return out;
}

}  // namespace p2plab::gossip
