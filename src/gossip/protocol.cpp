#include "gossip/protocol.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace p2plab::gossip {

const char* member_state_name(MemberState state) {
  switch (state) {
    case MemberState::kAlive:
      return "alive";
    case MemberState::kSuspect:
      return "suspect";
    case MemberState::kConfirmed:
      return "confirmed";
  }
  return "?";
}

std::uint64_t wire_bytes(const Payload& payload) {
  return kGossipHeaderBytes +
         (payload.rumor_count + payload.snapshot.size()) * kUpdateWireBytes;
}

namespace {

// SWIM piggybacks each rumor ~lambda·log2(n) times; lambda=3 puts the
// dissemination failure probability well below 1/n for the cluster sizes
// we run (the +2 keeps tiny clusters gossiping at all).
std::uint32_t budget_for(std::size_t cluster_size) {
  std::uint32_t log2n = 1;
  while ((std::size_t{1} << log2n) < std::max<std::size_t>(cluster_size, 2)) {
    ++log2n;
  }
  return 3 * log2n + 2;
}

}  // namespace

MembershipTable::MembershipTable(std::uint32_t self, std::size_t cluster_size)
    : self_(self), rumor_budget_(budget_for(cluster_size)) {
  P2PLAB_ASSERT(self < cluster_size);
  entries_.resize(cluster_size);
  entries_[self_].known = true;  // a member always knows itself alive
}

void MembershipTable::queue_rumor(const Update& update) {
  for (Rumor& rumor : rumors_) {
    if (rumor.update.subject == update.subject) {
      rumor.update = update;  // newer news supersedes; budget restarts
      rumor.budget = rumor_budget_;
      return;
    }
  }
  rumors_.push_back(Rumor{update, rumor_budget_});
}

bool MembershipTable::apply(const Update& update, SimTime now) {
  P2PLAB_ASSERT(update.subject < entries_.size());
  if (update.subject == self_) {
    // Never adopt others' opinion of ourselves. Suspicion (or a stale
    // confirm) of our current-or-newer incarnation is refuted by bumping
    // the incarnation and gossiping the fresher Alive.
    if (update.state != MemberState::kAlive &&
        update.incarnation >= incarnation_) {
      incarnation_ = update.incarnation + 1;
      ++refutations_;
      queue_rumor(Update{self_, MemberState::kAlive, incarnation_});
      return true;
    }
    return false;
  }

  Entry& entry = entries_[update.subject];
  bool accept = false;
  if (!entry.known) {
    accept = true;
  } else {
    switch (update.state) {
      case MemberState::kAlive:
        // Strictly newer incarnation overrides anything — including
        // Confirmed (the documented rejoin deviation). Equal incarnation
        // is old news and must not refresh Suspect back to Alive.
        accept = update.incarnation > entry.incarnation;
        break;
      case MemberState::kSuspect:
        accept = (entry.state == MemberState::kAlive &&
                  update.incarnation >= entry.incarnation) ||
                 (entry.state == MemberState::kSuspect &&
                  update.incarnation > entry.incarnation);
        break;
      case MemberState::kConfirmed:
        accept = entry.state != MemberState::kConfirmed;
        break;
    }
  }
  if (!accept) return false;

  if (entry.known && entry.state == MemberState::kSuspect) --suspects_;
  if (update.state == MemberState::kSuspect) ++suspects_;
  entry.known = true;
  entry.state = update.state;
  entry.incarnation = update.incarnation;
  entry.since = now;
  queue_rumor(update);
  return true;
}

bool MembershipTable::mark_suspect(std::uint32_t subject, SimTime now) {
  P2PLAB_ASSERT(subject != self_);
  Entry& entry = entries_[subject];
  if (!entry.known || entry.state != MemberState::kAlive) return false;
  return apply(Update{subject, MemberState::kSuspect, entry.incarnation}, now);
}

bool MembershipTable::mark_confirmed(std::uint32_t subject, SimTime now) {
  P2PLAB_ASSERT(subject != self_);
  Entry& entry = entries_[subject];
  if (!entry.known || entry.state != MemberState::kSuspect) return false;
  return apply(Update{subject, MemberState::kConfirmed, entry.incarnation},
               now);
}

void MembershipTable::bump_self(SimTime now) {
  (void)now;
  ++incarnation_;
  queue_rumor(Update{self_, MemberState::kAlive, incarnation_});
}

std::vector<std::uint32_t> MembershipTable::probe_candidates() const {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    if (i == self_) continue;
    if (!entries_[i].known) continue;
    if (entries_[i].state == MemberState::kConfirmed) continue;
    out.push_back(i);
  }
  return out;
}

std::vector<std::uint32_t> MembershipTable::expired_suspects(
    SimTime cutoff) const {
  std::vector<std::uint32_t> out;
  if (suspects_ == 0) return out;  // the common tick: nothing to scan
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    if (i == self_) continue;
    if (!entries_[i].known) continue;
    if (entries_[i].state != MemberState::kSuspect) continue;
    if (entries_[i].since <= cutoff) out.push_back(i);
  }
  return out;
}

std::vector<Update> MembershipTable::snapshot() const {
  std::vector<Update> out;
  out.push_back(Update{self_, MemberState::kAlive, incarnation_});
  for (std::uint32_t i = 0; i < entries_.size(); ++i) {
    if (i == self_ || !entries_[i].known) continue;
    out.push_back(Update{i, entries_[i].state, entries_[i].incarnation});
  }
  return out;
}

void MembershipTable::piggyback(std::size_t limit, Payload& payload) {
  P2PLAB_ASSERT(limit <= kPiggybackLimit);
  // Freshest rumors (highest remaining budget) first; subject ascending
  // breaks ties. queue_rumor keeps subjects unique, so the order is strict
  // and one insertion pass over the queue keeps exactly the first `limit`
  // of a full sort.
  const auto before = [this](std::size_t a, std::size_t b) {
    if (rumors_[a].budget != rumors_[b].budget) {
      return rumors_[a].budget > rumors_[b].budget;
    }
    return rumors_[a].update.subject < rumors_[b].update.subject;
  };
  std::array<std::size_t, kPiggybackLimit> top{};
  std::size_t chosen = 0;
  for (std::size_t i = 0; i < rumors_.size() && limit > 0; ++i) {
    if (chosen == limit && !before(i, top[chosen - 1])) continue;
    std::size_t pos = chosen < limit ? chosen++ : chosen - 1;
    for (; pos > 0 && before(i, top[pos - 1]); --pos) top[pos] = top[pos - 1];
    top[pos] = i;
  }

  bool exhausted = false;
  for (std::size_t k = 0; k < chosen; ++k) {
    Rumor& rumor = rumors_[top[k]];
    payload.rumors[k] = rumor.update;
    exhausted |= --rumor.budget == 0;
  }
  payload.rumor_count = static_cast<std::uint32_t>(chosen);
  if (exhausted) {
    rumors_.erase(std::remove_if(rumors_.begin(), rumors_.end(),
                                 [](const Rumor& r) { return r.budget == 0; }),
                  rumors_.end());
  }
}

}  // namespace p2plab::gossip
