// The fault injector: executes a FaultPlan on the sim clock.
//
// arm() schedules every spec of the plan as simulation events. Node faults
// are executed against the platform (socket abort + address detach/rejoin,
// pipe reconfiguration); the application layer participates through hooks —
// the injector tears down *infrastructure*, the hooks tear down or restart
// the *studied process* (e.g. bittorrent::Client::crash() / start()).
// Service faults (tracker outage) are entirely hook-driven since the
// tracker is an application.
//
// Every injection emits a "fault"/"fault_injected" trace event carrying a
// unique id, and every completed fault emits a matching
// "fault"/"fault_recovered" with the same id: window faults recover when
// the window closes, crash-with-rejoin when the node is back, and permanent
// departures (crash/leave without rejoin) as soon as the teardown finished
// cleanly — "recovered" means the emulator reached the intended post-fault
// state, which is what CI asserts on (no unpaired injections = no wedged
// teardown). stats().unrecovered() counts in-flight faults; it must be zero
// once the run drains.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>

#include "core/platform.hpp"
#include "fault/plan.hpp"
#include "metrics/registry.hpp"

namespace p2plab::fault {

/// Application-level participation in node faults. All optional; the node
/// index is the platform vnode index from the FaultSpec.
struct NodeHooks {
  /// After the platform aborted the sockets and detached the address: the
  /// studied process drops its session state (no goodbyes can escape —
  /// every socket is already dead).
  std::function<void(std::size_t)> on_crash;
  /// Graceful departure: the process says goodbye (e.g. announces
  /// "stopped") before its address detaches after a grace period.
  std::function<void(std::size_t)> on_leave;
  /// After the address is reachable again: restart the process.
  std::function<void(std::size_t)> on_rejoin;
};

/// Service-fault participation (tracker outage windows).
struct ServiceHooks {
  std::function<void()> on_tracker_outage;
  std::function<void()> on_tracker_restore;
};

struct InjectorStats {
  std::uint64_t injected = 0;
  std::uint64_t recovered = 0;
  std::uint64_t unrecovered() const { return injected - recovered; }
};

/// A graceful leave detaches the address this long after on_leave, so
/// farewell messages (tracker "stopped" announce, FINs) get out.
inline constexpr Duration kLeaveGrace = Duration::millis(500);

struct InjectorMetrics {
  metrics::Counter injected;
  metrics::Counter recovered;
  metrics::Gauge active;
};

class FaultInjector {
 public:
  FaultInjector(core::Platform& platform, FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  void set_node_hooks(NodeHooks hooks) { node_hooks_ = std::move(hooks); }
  void set_service_hooks(ServiceHooks hooks) {
    service_hooks_ = std::move(hooks);
  }

  /// Schedule the whole plan. Call once, before (or while) the sim runs;
  /// specs whose time is already past fire at the current instant.
  void arm();

  const FaultPlan& plan() const { return plan_; }
  const InjectorStats& stats() const { return stats_; }

  /// Resolve "fault.*" handles ("fault.injected", "fault.recovered",
  /// "fault.active").
  void bind_metrics(metrics::Registry& reg);

 private:
  void inject(const FaultSpec& spec, std::uint64_t id);
  void mark_injected(const FaultSpec& spec, std::uint64_t id, SimTime at);
  void mark_recovered(const FaultSpec& spec, std::uint64_t id, SimTime at);
  /// The simulation owning the spec's target: node faults run on the
  /// faulted vnode's shard, service faults on the tracker's (vnode 0).
  sim::Simulation& sim_for(const FaultSpec& spec);

  core::Platform& platform_;
  /// Sorted in the constructor and never changed after: the scheduled
  /// closures point into it.
  FaultPlan plan_;
  NodeHooks node_hooks_;
  ServiceHooks service_hooks_;
  InjectorStats stats_;
  InjectorMetrics metrics_;
  /// Guards stats_, metrics_ and tracker_outages_: faults execute on shard
  /// worker threads, and the master-registry cells behind metrics_ are
  /// plain non-atomic stores.
  std::mutex mu_;
  bool armed_ = false;
  std::uint64_t tracker_outages_ = 0;  // nested-outage refcount
};

}  // namespace p2plab::fault
