// Syscall cost model for the process-level virtualization layer.
//
// P2PLab binds each virtual node's process to its own IP by modifying
// bind()/connect()/listen() in the FreeBSD libc: connect() and listen()
// issue an extra bind() to the address in the BINDIP environment variable,
// doubling their system-call count. The paper measures the overhead on a
// local TCP connect/disconnect cycle: 10.22 us unmodified vs 10.79 us
// intercepted.
//
// The constants below are calibrated so those two numbers are *emergent*:
//   base cycle  = socket + connect + loopback RTT + close
//               = 2.10 + 4.62 + 2.00 + 1.50             = 10.22 us
//   intercepted = base + getenv(BINDIP) + extra bind
//               = 10.22 + 0.07 + 0.50                   = 10.79 us
#pragma once

#include "common/time.hpp"

namespace p2plab::vnode::syscall_cost {

inline constexpr Duration kSocket = Duration::micros(2.10);
inline constexpr Duration kBind = Duration::micros(0.50);
inline constexpr Duration kConnect = Duration::micros(4.62);
inline constexpr Duration kListen = Duration::micros(0.80);
inline constexpr Duration kAccept = Duration::micros(2.50);
inline constexpr Duration kClose = Duration::micros(1.50);
inline constexpr Duration kSend = Duration::micros(0.90);
/// Kernel loopback handoff inside a local connect/accept cycle.
inline constexpr Duration kLoopbackRtt = Duration::micros(2.00);
/// getenv("BINDIP") plus address parsing in the modified libc.
inline constexpr Duration kEnvLookup = Duration::micros(0.07);

/// The microbenchmark quantities, for tests and the bench harness.
inline constexpr Duration kBaseConnectCycle =
    kSocket + kConnect + kLoopbackRtt + kClose;
inline constexpr Duration kInterceptedConnectCycle =
    kBaseConnectCycle + kEnvLookup + kBind;

}  // namespace p2plab::vnode::syscall_cost
