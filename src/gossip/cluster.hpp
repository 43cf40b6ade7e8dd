// gossip::Cluster — one SWIM member per virtual node, driven entirely by
// the sim clock and the platform's sockets.
//
// Every per-node action (ticks, probe timeouts, joins, message handling)
// runs as an event on that node's owning shard simulation, touching only
// that node's state; the address table is immutable after construction.
// That single-writer discipline is what makes the protocol bit-identical
// across shard counts — the same property every other workload in this
// repo maintains.
//
// Lifecycle under churn: the fault injector's node hooks call crash() /
// stop() / restart() from events already scheduled on the owning shard.
// A monotonically increasing epoch is captured by every scheduled lambda
// and socket handler, so callbacks from a previous life are no-ops —
// there is no event cancellation to keep deterministic.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "gossip/protocol.hpp"
#include "metrics/registry.hpp"
#include "sockets/socket.hpp"

namespace p2plab::core {
class Platform;
}

namespace p2plab::gossip {

/// One local confirm decision: `observer` declared `victim` dead at `at`.
struct ConfirmRecord {
  SimTime at;
  std::uint32_t observer = 0;
  std::uint32_t victim = 0;
};

/// "gossip.*" registry handles; bound per node against the owning shard's
/// registry (single-writer), merged into the master after the run.
struct GossipMetrics {
  metrics::Counter pings;
  metrics::Counter acks;
  metrics::Counter ping_reqs;
  metrics::Counter suspects;
  metrics::Counter confirms;
  metrics::Counter refutations;
  metrics::Counter joins;
};

class Node {
 public:
  Node(core::Platform& platform, const Config& config, std::uint32_t id,
       const std::vector<Ipv4Addr>& addrs);

  /// Bring the member up for the first time (runs as a sim event on the
  /// owning shard). The introducer (id 0) starts joined; everyone else
  /// asks it for a membership snapshot, retrying every period. A no-op
  /// once a fault hook has run: the fault then owns the lifecycle.
  void start();

  // Fault-injector hooks; callers run them on the owning shard.
  void crash();    // sockets already torn down by Platform::crash_vnode
  void stop();     // graceful leave: close the socket, go silent
  void restart();  // rejoin: bump incarnation, re-bind, re-join

  /// Post-run teardown (scheduled as a sim event so the queue can drain).
  void halt();

  void bind_metrics(metrics::Registry& registry);

  std::uint32_t id() const { return id_; }
  bool running() const { return running_; }
  bool joined() const { return joined_; }
  const MembershipTable& table() const { return table_; }
  const std::vector<ConfirmRecord>& confirms() const { return confirms_; }

 private:
  struct Relay {
    std::uint32_t requester = 0;
    std::uint64_t requester_seq = 0;
  };

  SimTime now() const;
  void bind_socket();
  void send(std::uint32_t to, std::uint32_t type, Payload payload,
            bool piggyback = true);
  void send_join();
  void begin_ticking();
  void tick();
  std::uint32_t next_probe_target(bool* found);
  void fire_indirect(std::uint64_t seq);
  void on_datagram(const sockets::Message& message);

  core::Platform& platform_;
  const Config& config_;
  std::uint32_t id_ = 0;
  const std::vector<Ipv4Addr>& addrs_;
  MembershipTable table_;
  Rng rng_;

  sockets::DatagramSocketPtr sock_;
  std::uint64_t epoch_ = 0;  // bumped on every lifecycle transition
  bool running_ = false;
  bool joined_ = false;

  // Direct-probe state: one outstanding probe per protocol period.
  std::uint64_t seq_ = 0;  // last sequence number issued (probes + relays)
  std::uint64_t probe_seq_ = 0;
  std::uint32_t probe_target_ = 0;
  bool probe_open_ = false;
  bool probe_acked_ = false;

  // Round-robin probe order: a shuffled ring, reshuffled when exhausted.
  std::vector<std::uint32_t> probe_ring_;
  std::size_t ring_pos_ = 0;

  // Outstanding ping-req relays, keyed by the relay probe's sequence.
  std::map<std::uint64_t, Relay> relays_;

  std::vector<ConfirmRecord> confirms_;
  std::uint64_t counted_refutations_ = 0;
  GossipMetrics metrics_;
};

/// The whole membership experiment: one Node per vnode [0, config.nodes).
class Cluster {
 public:
  Cluster(core::Platform& platform, const Config& config);

  /// Schedule the staggered start: the introducer at `platform.now()`,
  /// node i at +i·kJoinInterval, each on its owning shard.
  void start();

  /// Bind each node's gossip.* counters to its shard registry.
  void bind_metrics();

  /// Schedule a halt event for every node at `platform.now()`; the caller
  /// then runs the platform briefly so the event queue drains.
  void schedule_halt_all();

  Node& node(std::size_t i) { return *nodes_.at(i); }
  std::size_t size() const { return nodes_.size(); }

  /// Every local confirm decision, sorted by (time, observer, victim) —
  /// deterministic regardless of shard count.
  std::vector<ConfirmRecord> confirm_log() const;

  /// Canonical end-state digest (confirm log + per-node table summary)
  /// for the shard-count invariance test.
  std::vector<std::string> event_log() const;

 private:
  core::Platform& platform_;
  const Config config_;
  std::vector<Ipv4Addr> addrs_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace p2plab::gossip
