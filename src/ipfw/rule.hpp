// IPFW-style firewall rules and the rule table that classifies packets.
//
// The paper's scalability limit is the firewall: "latency increases nearly
// linearly with the number of rules, because the rules are evaluated
// linearly by the firewall. With IPFW, it is not possible to evaluate the
// rules in a hierarchical way, or with a hash table." (Figure 6.)
//
// The faithful model is the *charged count*, not the walk. RuleTable finds
// the verdict through an exact first-match index and reports two counts for
// it: the linear walk length ipfw would pay (rules_scanned, which the
// network layer charges as per-rule CPU latency) and the candidates the
// index examined (rules_probed, the hash-table firewall the paper wishes
// IPFW had; the ablation charges it instead).
//
// Matching semantics follow Dummynet with net.inet.ip.fw.one_pass=0: a
// matching pipe rule shapes the packet and the scan *continues* (the paper
// applies both the per-vnode pipe and an inter-group latency pipe to the
// same packet); allow/deny terminate the scan.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <vector>

#include "common/ipv4.hpp"

namespace p2plab::ipfw {

using PipeId = std::uint32_t;
inline constexpr PipeId kNoPipe = 0;

/// The matched pipes of one classification, in rule order. Inline storage
/// covers the real configurations (a vnode's access pipe plus an
/// inter-group delay pipe); a rule set matching more than kInlinePipes
/// pipes spills to the heap. Keeping this off the allocator matters:
/// classify() runs twice per packet on the hot path, and its result rides
/// inside the pipe-walk closure's inline capture.
class PipeList {
 public:
  static constexpr std::size_t kInlinePipes = 4;

  PipeList() = default;
  PipeList(std::initializer_list<PipeId> ids) {
    for (PipeId id : ids) push_back(id);
  }
  PipeList(PipeList&& other) noexcept
      : size_(other.size_),
        inline_(other.inline_),
        spill_(std::move(other.spill_)) {
    other.size_ = 0;
  }
  PipeList& operator=(PipeList&& other) noexcept {
    if (this != &other) {
      size_ = other.size_;
      inline_ = other.inline_;
      spill_ = std::move(other.spill_);
      other.size_ = 0;
    }
    return *this;
  }
  PipeList(const PipeList& other)
      : size_(other.size_),
        inline_(other.inline_),
        spill_(other.spill_ ? std::make_unique<std::vector<PipeId>>(
                                  *other.spill_)
                            : nullptr) {}
  PipeList& operator=(const PipeList& other) {
    if (this != &other) *this = PipeList(other);
    return *this;
  }

  void push_back(PipeId id) {
    if (spill_ == nullptr) {
      if (size_ < kInlinePipes) {
        inline_[size_++] = id;
        return;
      }
      spill_ = std::make_unique<std::vector<PipeId>>(inline_.begin(),
                                                     inline_.end());
    }
    spill_->push_back(id);
    ++size_;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  PipeId operator[](std::size_t i) const { return data()[i]; }
  const PipeId* begin() const { return data(); }
  const PipeId* end() const { return data() + size_; }

  friend bool operator==(const PipeList& a, const PipeList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const PipeList& a, const std::vector<PipeId>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  const PipeId* data() const {
    return spill_ ? spill_->data() : inline_.data();
  }

  std::uint32_t size_ = 0;
  std::array<PipeId, kInlinePipes> inline_{};
  std::unique_ptr<std::vector<PipeId>> spill_;
};

enum class RuleAction { kPipe, kAllow, kDeny };

/// Direction qualifier (ipfw's "in"/"out" keywords). Essential once
/// virtual nodes fold onto one host: the uplink rule must only apply on
/// the outgoing pass and the downlink rule on the incoming pass, or
/// co-located peers would be shaped twice.
enum class RuleDir { kAny, kIn, kOut };

struct Rule {
  std::uint32_t number = 0;  // evaluated in ascending number order
  CidrBlock src = CidrBlock::any();
  CidrBlock dst = CidrBlock::any();
  RuleDir dir = RuleDir::kAny;
  RuleAction action = RuleAction::kAllow;
  PipeId pipe = kNoPipe;

  bool matches(Ipv4Addr s, Ipv4Addr d, RuleDir pass) const {
    // A kAny *pass* (diagnostic classification) matches regardless of the
    // rule's direction; a directed pass skips rules of the other direction.
    if (dir != RuleDir::kAny && pass != RuleDir::kAny && dir != pass) {
      return false;
    }
    return src.contains(s) && dst.contains(d);
  }
};

struct MatchResult {
  /// ipfw's linear walk length: the terminal rule's position + 1, or the
  /// whole list when no rule terminates. Figure 6 charges this.
  std::uint32_t rules_scanned = 0;
  /// Candidates the first-match index examined to reach the same verdict:
  /// what a firewall with a hash table would charge (the ablation).
  std::uint32_t rules_probed = 0;
  bool denied = false;
  /// Matched pipe rules in rule order; the packet traverses them in order.
  PipeList pipes;
};

/// The rules in evaluation order plus an exact first-match index: /32-src
/// rules keyed by source address, /32-dst rules by destination address,
/// and the positions of every other (group) rule. A mutation only marks
/// the index stale; the next classify() rebuilds it once. Only the shard
/// that owns the host classifies, and mutations happen between runs.
class RuleTable {
 public:
  /// Insert before the first rule with a larger number: equal numbers keep
  /// insertion order, matching ipfw add semantics.
  void add(const Rule& rule);
  void reserve(std::size_t count) { rules_.reserve(count); }
  std::size_t size() const { return rules_.size(); }

  /// Walk the candidates for (src, dst) in rule order: pipe rules
  /// accumulate, the first allow or deny ends the walk (an implicit allow
  /// ends the list). Allocates nothing once the index is built.
  MatchResult classify(Ipv4Addr src, Ipv4Addr dst, RuleDir pass);

 private:
  struct HostRule {
    std::uint32_t addr;
    std::uint32_t pos;  // index into rules_
  };

  void build_index();

  std::vector<Rule> rules_;
  std::vector<HostRule> by_src_;  // sorted by (addr, pos), then a sentinel
  std::vector<HostRule> by_dst_;  // sorted by (addr, pos), then a sentinel
  std::vector<std::uint32_t> group_;  // ascending, then a sentinel
  bool index_stale_ = true;
};

}  // namespace p2plab::ipfw
