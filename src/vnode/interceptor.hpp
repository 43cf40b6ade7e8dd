// The modified-libc interception layer.
//
// Models P2PLab's patched bind()/connect()/listen():
//  - bind(): the requested address is *replaced* by $BINDIP;
//  - connect()/listen(): an implicit bind($BINDIP) is issued first (the
//    extra system call the paper measures); if the application had already
//    bound, the implicit bind fails and the error is ignored.
//  - statically linked programs bypass the libc entirely, so their calls
//    pass through unmodified — the failure case the paper documents.
//
// Each decision reports the CPU cost it added so the socket layer can
// charge it to the host; the overhead microbenchmark reads off these costs.
// The layer is stateless: the decision depends on the process alone.
#pragma once

#include <optional>

#include "common/ipv4.hpp"
#include "common/time.hpp"
#include "vnode/syscall_costs.hpp"
#include "vnode/vnode.hpp"

namespace p2plab::vnode {

struct BindDecision {
  Ipv4Addr address;     // the address the socket actually binds to
  Duration added_cost;  // interception CPU beyond the vanilla call
  bool intercepted;     // false for static binaries / unset BINDIP
};

namespace detail {
inline std::optional<Ipv4Addr> bindip(const Process& process) {
  if (process.link_mode() == LinkMode::kStatic) return std::nullopt;
  const auto value = process.getenv("BINDIP");
  if (!value) return std::nullopt;
  return Ipv4Addr::parse(*value);
}
}  // namespace detail

/// Explicit bind(addr): intercepted processes bind to $BINDIP instead.
inline BindDecision on_bind(const Process& process, Ipv4Addr requested) {
  if (const auto forced = detail::bindip(process)) {
    return {*forced, syscall_cost::kEnvLookup, true};
  }
  return {requested, Duration::zero(), false};
}

/// Implicit bind before connect()/listen(). `already_bound` models the
/// application having called bind() itself: the interposed bind fails
/// and the error is ignored — but its syscall cost was still paid.
inline BindDecision on_connect_or_listen(
    const Process& process, std::optional<Ipv4Addr> already_bound) {
  if (const auto forced = detail::bindip(process)) {
    constexpr Duration kCost = syscall_cost::kEnvLookup + syscall_cost::kBind;
    if (already_bound.has_value()) {
      return {*already_bound, kCost, true};  // EINVAL ignored
    }
    return {*forced, kCost, true};
  }
  if (already_bound.has_value()) {
    return {*already_bound, Duration::zero(), false};
  }
  // Vanilla behaviour: the kernel picks the interface's primary address.
  return {process.node().host().admin_ip(), Duration::zero(), false};
}

}  // namespace p2plab::vnode
