// Lightweight always-on assertion macros.
//
// Simulation correctness depends on internal invariants (event ordering,
// queue accounting, byte conservation); violations must abort loudly even
// in optimized builds rather than silently corrupt an experiment.
#pragma once

#include <cstdio>
#include <cstdlib>

namespace p2plab::detail {

/// Invoked once before abort() on assertion failure; the flight recorder
/// (metrics/recorder.hpp) installs its post-mortem dump here. Kept as a
/// bare function pointer so common/ stays dependency-free. Thread-local:
/// each parallel-engine worker installs the hook for its own shard's
/// recorder, and an assertion dumps the log of the thread that tripped it.
inline thread_local void (*g_assert_hook)() = nullptr;

/// Second post-mortem slot, invoked after g_assert_hook: the wall-clock
/// profiler (profile/profiler.hpp) drains its phase rings here so a crashed
/// run still leaves a timeline next to the flight-recorder dump. Separate
/// slots keep the two subsystems from clobbering each other's hook.
inline thread_local void (*g_profile_assert_hook)() = nullptr;

[[noreturn]] inline void assert_fail(const char* expr, const char* file,
                                     int line, const char* msg) {
  std::fprintf(stderr, "p2plab: assertion failed: %s at %s:%d%s%s\n", expr,
               file, line, msg ? " — " : "", msg ? msg : "");
  if (g_assert_hook != nullptr) {
    // Disarm first: a failure inside the hook must not recurse.
    auto* hook = g_assert_hook;
    g_assert_hook = nullptr;
    hook();
  }
  if (g_profile_assert_hook != nullptr) {
    auto* hook = g_profile_assert_hook;
    g_profile_assert_hook = nullptr;
    hook();
  }
  std::abort();
}

}  // namespace p2plab::detail

#define P2PLAB_ASSERT(expr)                                              \
  ((expr) ? static_cast<void>(0)                                         \
          : ::p2plab::detail::assert_fail(#expr, __FILE__, __LINE__,     \
                                          nullptr))

#define P2PLAB_ASSERT_MSG(expr, msg)                                     \
  ((expr) ? static_cast<void>(0)                                         \
          : ::p2plab::detail::assert_fail(#expr, __FILE__, __LINE__, msg))
