// SWIM-style membership protocol: configuration, wire format and the pure
// per-node state machine.
//
// The protocol follows Das et al.'s SWIM (and its MP1Node/Serf-style
// descendants): each protocol period a member probes one other member
// (round-robin over a shuffled ring); a missing ack within kPingTimeout
// triggers an indirect ping-req through k proxies; a member with no ack by
// the end of the period is locally *suspected*, and a suspicion that ages
// past suspect_timeout is locally *confirmed* dead. Every message
// piggybacks a bounded number of membership rumors (budgeted at
// ~3·log2(n) retransmissions each), and a member that hears itself
// suspected refutes by bumping its incarnation number — alive updates with
// a higher incarnation override suspicion everywhere.
//
// MembershipTable is deliberately free of sockets, timers and platform
// dependencies: it is the unit-testable core (suspect/confirm precedence,
// incarnation refutation, piggyback budgeting), driven by gossip::Node
// (cluster.hpp) on the sim clock.
//
// One documented deviation from strict SWIM: an Alive update with a
// *strictly higher* incarnation overrides Confirmed. SWIM treats confirm
// as final; we let crashed nodes rejoin under churn (they bump their
// incarnation on restart), so the cluster heals instead of remembering a
// rejoined member as dead forever.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/time.hpp"

namespace p2plab::gossip {

// SWIM's protocol constants (Das et al.), each ablatable with a one-line
// edit; only the cluster size and the suspicion timeout are configured.
/// Protocol period: one direct probe (and one suspect sweep) per period.
inline constexpr Duration kProtocolPeriod = Duration::sec(1);
/// Direct-ack wait before the indirect ping-req round fires.
inline constexpr Duration kPingTimeout = Duration::millis(300);
/// Proxies asked per indirect probe round (SWIM's k = 3).
inline constexpr std::size_t kIndirectProbes = 3;
/// Max rumors piggybacked per message.
inline constexpr std::size_t kPiggybackLimit = 8;
/// Stagger between consecutive joins at cluster start.
inline constexpr Duration kJoinInterval = Duration::millis(200);

struct Config {
  /// Cluster size; vnode 0 is the introducer every joiner contacts.
  std::size_t nodes = 32;
  /// Suspicion age before a local confirm (the detection latency knob).
  Duration suspect_timeout = Duration::sec(4);
};

enum class MemberState : std::uint8_t {
  kAlive = 0,
  kSuspect = 1,
  kConfirmed = 2,  // declared dead
};

const char* member_state_name(MemberState state);

/// One piggybacked membership rumor.
struct Update {
  std::uint32_t subject = 0;
  MemberState state = MemberState::kAlive;
  std::uint32_t incarnation = 0;
};

/// Body of every gossip datagram. `seq` correlates probes with acks;
/// `target` names the ping-req target (and, in acks, the member whose
/// aliveness the ack proves, so relayed acks stay attributable). Rumors
/// ride inline (MembershipTable::piggyback fills them); only a join reply
/// carries a full-state snapshot, the one part that allocates.
struct Payload {
  std::uint32_t from = 0;
  std::uint32_t from_incarnation = 0;
  std::uint64_t seq = 0;
  std::uint32_t target = 0;
  std::uint32_t rumor_count = 0;
  std::array<Update, kPiggybackLimit> rumors{};
  std::vector<Update> snapshot;

  /// The rumors piggybacked on this message.
  std::span<const Update> piggybacked() const {
    return {rumors.data(), rumor_count};
  }
};

// sockets::Message::type values.
inline constexpr std::uint32_t kMsgJoinReq = 0x6a01;
inline constexpr std::uint32_t kMsgJoinRep = 0x6a02;
inline constexpr std::uint32_t kMsgPing = 0x6a03;
inline constexpr std::uint32_t kMsgAck = 0x6a04;
inline constexpr std::uint32_t kMsgPingReq = 0x6a05;

/// SWIM's customary port, bound on every member.
inline constexpr std::uint16_t kGossipPort = 7946;
/// Modeled wire bytes: fixed header (from/incarnation/seq/target) plus a
/// packed (subject, state, incarnation) triple per rumor or snapshot entry.
inline constexpr std::uint64_t kGossipHeaderBytes = 16;
inline constexpr std::uint64_t kUpdateWireBytes = 9;

std::uint64_t wire_bytes(const Payload& payload);

/// One member's view of the cluster plus its rumor queue. All transitions
/// are pure functions of (current state, update, now); the caller supplies
/// the clock.
class MembershipTable {
 public:
  struct Entry {
    bool known = false;
    MemberState state = MemberState::kAlive;
    std::uint32_t incarnation = 0;
    /// When the current state was adopted (drives suspicion aging).
    SimTime since;
  };

  MembershipTable(std::uint32_t self, std::size_t cluster_size);

  std::uint32_t self() const { return self_; }
  std::uint32_t incarnation() const { return incarnation_; }
  /// Times this member refuted a suspicion/confirmation about itself.
  std::uint64_t refutations() const { return refutations_; }
  const Entry& entry(std::uint32_t subject) const {
    return entries_[subject];
  }
  const std::vector<Entry>& entries() const { return entries_; }

  /// Apply one received rumor with SWIM precedence. Returns true when the
  /// local view changed (and the rumor was re-queued for onward gossip).
  /// Rumors about `self` never change the view; a suspect/confirm about
  /// self with a current-or-newer incarnation triggers a refutation (bumps
  /// incarnation, queues the Alive rumor).
  bool apply(const Update& update, SimTime now);

  /// Local detector verdicts. Each returns true when the state actually
  /// transitioned (queuing the rumor); stale requests are no-ops.
  bool mark_suspect(std::uint32_t subject, SimTime now);
  bool mark_confirmed(std::uint32_t subject, SimTime now);

  /// Restart after a crash: bump own incarnation and queue the Alive
  /// rumor, so the rejoin supersedes any suspicion of the old incarnation.
  void bump_self(SimTime now);

  /// Known, non-confirmed members other than self — the probe pool.
  std::vector<std::uint32_t> probe_candidates() const;
  /// Suspects whose suspicion started at or before `cutoff`.
  std::vector<std::uint32_t> expired_suspects(SimTime cutoff) const;
  /// Full-state updates (self first by subject order) for a join reply.
  std::vector<Update> snapshot() const;

  /// Writes up to `limit` (<= kPiggybackLimit) distinct queued rumors into
  /// `payload`, freshest (highest remaining budget) first with
  /// lowest-subject tie-break; decrements each chosen rumor's budget and
  /// drops exhausted ones. Deterministic; allocates nothing.
  void piggyback(std::size_t limit, Payload& payload);

  /// A queued rumor and the transmissions it has left.
  struct Rumor {
    Update update;
    std::uint32_t budget = 0;
  };
  /// The rumor queue, in queueing order.
  const std::vector<Rumor>& rumors() const { return rumors_; }

 private:
  /// Queue (or supersede, resetting the budget) the rumor for a subject.
  void queue_rumor(const Update& update);

  std::uint32_t self_ = 0;
  std::uint32_t incarnation_ = 0;
  std::uint32_t rumor_budget_ = 0;  // transmissions per rumor, ~3·log2(n)
  std::uint64_t refutations_ = 0;
  std::size_t suspects_ = 0;  // entries in kSuspect (never self)
  std::vector<Entry> entries_;
  std::vector<Rumor> rumors_;
};

}  // namespace p2plab::gossip
