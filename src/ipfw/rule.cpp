#include "ipfw/rule.hpp"

#include <algorithm>
#include <limits>

namespace p2plab::ipfw {

namespace {

constexpr std::uint32_t kEnd = std::numeric_limits<std::uint32_t>::max();

}  // namespace

void RuleTable::add(const Rule& rule) {
  auto pos = std::upper_bound(
      rules_.begin(), rules_.end(), rule,
      [](const Rule& a, const Rule& b) { return a.number < b.number; });
  rules_.insert(pos, rule);
  index_stale_ = true;
}

void RuleTable::build_index() {
  by_src_.clear();
  by_dst_.clear();
  group_.clear();
  for (std::uint32_t pos = 0; pos < rules_.size(); ++pos) {
    const Rule& rule = rules_[pos];
    if (rule.src.prefix_len() == 32) {
      by_src_.push_back({rule.src.base().to_u32(), pos});
    } else if (rule.dst.prefix_len() == 32) {
      by_dst_.push_back({rule.dst.base().to_u32(), pos});
    } else {
      group_.push_back(pos);
    }
  }
  auto by_addr_then_pos = [](const HostRule& a, const HostRule& b) {
    return a.addr != b.addr ? a.addr < b.addr : a.pos < b.pos;
  };
  std::sort(by_src_.begin(), by_src_.end(), by_addr_then_pos);
  std::sort(by_dst_.begin(), by_dst_.end(), by_addr_then_pos);
  // Sentinels: a lookup lands on a real entry or on these, and every range
  // ends at position kEnd, so the walk needs no bounds checks.
  by_src_.push_back({kEnd, kEnd});
  by_dst_.push_back({kEnd, kEnd});
  group_.push_back(kEnd);
  index_stale_ = false;
}

MatchResult RuleTable::classify(Ipv4Addr src, Ipv4Addr dst, RuleDir pass) {
  if (index_stale_) build_index();
  // The first entry of a host index keyed by `addr` (or the sentinel), and
  // the position of the entry `r` if it is keyed by `addr`.
  auto first = [](const std::vector<HostRule>& index, std::uint32_t addr) {
    return &*std::partition_point(
        index.begin(), index.end() - 1,
        [addr](const HostRule& r) { return r.addr < addr; });
  };
  auto pos_of = [](const HostRule* r, std::uint32_t addr) {
    return r->addr == addr ? r->pos : kEnd;
  };
  const std::uint32_t s_addr = src.to_u32();
  const std::uint32_t d_addr = dst.to_u32();
  const HostRule* s = first(by_src_, s_addr);
  const HostRule* d = first(by_dst_, d_addr);
  const std::uint32_t* g = group_.data();
  std::uint32_t ps = pos_of(s, s_addr);
  std::uint32_t pd = pos_of(d, d_addr);
  std::uint32_t pg = *g;

  // Merge the three ascending position ranges: every rule lives in exactly
  // one of them, so this visits the candidates in rule order.
  MatchResult result;
  for (;;) {
    std::uint32_t pos;
    if (ps < pd && ps < pg) {
      pos = ps;
      ps = pos_of(++s, s_addr);
    } else if (pd < pg) {
      pos = pd;
      pd = pos_of(++d, d_addr);
    } else if (pg != kEnd) {
      pos = pg;
      pg = *++g;
    } else {
      break;
    }
    ++result.rules_probed;
    const Rule& rule = rules_[pos];
    if (!rule.matches(src, dst, pass)) continue;
    if (rule.action == RuleAction::kPipe) {
      result.pipes.push_back(rule.pipe);  // one_pass=0: keep walking
      continue;
    }
    result.denied = rule.action == RuleAction::kDeny;
    result.rules_scanned = pos + 1;
    return result;
  }
  result.rules_scanned = static_cast<std::uint32_t>(rules_.size());
  return result;  // implicit allow at end of list
}

}  // namespace p2plab::ipfw
