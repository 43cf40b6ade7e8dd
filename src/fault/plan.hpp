// Fault plans: deterministic failure schedules.
//
// A FaultPlan is the declarative half of the fault-injection subsystem: a
// time-ordered list of faults (node crashes, graceful departures, link
// flaps, latency spikes, bursty-loss windows, tracker outages) with no idea
// how they are executed. The FaultInjector (injector.hpp) walks the plan
// and drives the platform on the sim clock.
//
// Plans come from three sources, all deterministic:
//   * a builder API (plan.crash(4, SimTime::seconds(30)).link_down(...)),
//   * a fault file or a `.scn` [faults] block, one directive per line
//     (see parse() below),
//   * the churn generator, which expands a ChurnConfig + seeded Rng into a
//     concrete schedule — same seed, same config => same plan, so churn
//     experiments replay bit-identically.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/text.hpp"
#include "common/time.hpp"
#include "ipfw/pipe.hpp"

namespace p2plab::fault {

enum class FaultKind {
  kCrash,          // kill -9; rejoins after `duration` iff `rejoin`
  kLeave,          // graceful departure: app stops, address detaches
  kLinkDown,       // access link administratively down for `duration`
  kLatencySpike,   // +`extra_latency` one-way for `duration`
  kBurstLoss,      // Gilbert-Elliott override for `duration`
  kTrackerOutage,  // service fault: tracker offline for `duration`
};

const char* fault_kind_name(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kCrash;
  std::size_t node = 0;  // vnode index; ignored for kTrackerOutage
  SimTime at;            // injection time
  /// Fault window; for kCrash with `rejoin`, the downtime before rejoining.
  Duration duration = Duration::zero();
  bool rejoin = false;                            // kCrash only
  Duration extra_latency = Duration::zero();      // kLatencySpike only
  ipfw::GilbertElliott burst;                     // kBurstLoss only
};

/// Deterministic churn schedule parameters (see FaultPlan::churn). The
/// defaults are the scenario DSL's `churn` defaults.
struct ChurnConfig {
  std::size_t first_node = 0;
  std::size_t last_node = 0;  // inclusive
  /// Share of [first_node, last_node] that fails, rounded down.
  double fraction = 0.3;
  /// Failure times are uniform in [window_start, window_end).
  SimTime window_start;
  SimTime window_end;
  /// Share of failing nodes that come back (the rest depart for good).
  double rejoin_fraction = 0.5;
  /// Downtime for rejoining nodes, uniform in [rejoin_min, rejoin_max).
  Duration rejoin_min = Duration::sec(30);
  Duration rejoin_max = Duration::sec(120);
  /// Failures are graceful leaves instead of crashes with this probability.
  double leave_fraction = 0.0;
};

/// One scheduled node failure (a crash or a leave): the node is down from
/// `down` until `up`, which is SimTime::max() when it never comes back.
struct FailureWindow {
  std::size_t node = 0;
  SimTime down;
  SimTime up;
  bool rejoins() const { return up != SimTime::max(); }
};

struct PlanParseResult;

class FaultPlan {
 public:
  // Builder API — each call appends one spec and returns *this.
  FaultPlan& crash(std::size_t node, SimTime at);
  FaultPlan& crash_and_rejoin(std::size_t node, SimTime at, Duration after);
  FaultPlan& leave(std::size_t node, SimTime at);
  FaultPlan& link_down(std::size_t node, SimTime at, Duration window);
  FaultPlan& latency_spike(std::size_t node, SimTime at, Duration extra,
                           Duration window);
  FaultPlan& burst_loss(std::size_t node, SimTime at, Duration window,
                        const ipfw::GilbertElliott& ge);
  FaultPlan& tracker_outage(SimTime at, Duration window);

  const std::vector<FaultSpec>& specs() const { return specs_; }
  std::size_t size() const { return specs_.size(); }
  bool empty() const { return specs_.empty(); }

  /// Append every spec of `other` (used to combine an explicit plan with a
  /// generated churn schedule). Call sort() afterwards.
  FaultPlan& append(const FaultPlan& other);

  /// Every crash and leave, in plan order. A crash rejoins iff `rejoin`;
  /// a leave never does.
  std::vector<FailureWindow> failure_windows() const;

  /// Time-order the specs (stable: equal-time faults keep insertion order,
  /// matching the sim kernel's FIFO tie-break). The injector calls this.
  void sort();

  /// Expand a churn configuration into a concrete schedule. Node selection,
  /// failure times, leave-vs-crash and rejoin draws all come from `rng`, so
  /// the result is a pure function of (config, rng state).
  static FaultPlan churn(const ChurnConfig& config, Rng& rng);

  /// Parse a fault plan. One directive per line, in the shared grammar of
  /// every experiment file (common/text.hpp: '#' comments anywhere outside
  /// double quotes, key=value attributes, each given at most once):
  ///
  ///   crash node=N at=T [rejoin=D]
  ///   leave node=N at=T
  ///   linkdown node=N at=T for=D
  ///   spike node=N at=T add=D for=D
  ///   burstloss node=N at=T for=D pgb=P pbg=P [lossbad=P] [lossgood=P]
  ///   tracker_outage at=T for=D
  ///
  /// Times/durations accept s/ms/us suffixes (bare numbers are seconds,
  /// matching how scenarios are written; 30 == 30s). A node index above
  /// `max_node` (the workload's last vnode) is an error. The plan comes
  /// back time-sorted.
  static PlanParseResult parse(std::span<const text::TokenLine> lines,
                               std::size_t max_node = SIZE_MAX);
  /// Lex `source`, then parse it.
  static PlanParseResult parse(std::string_view source,
                               std::size_t max_node = SIZE_MAX);

 private:
  std::vector<FaultSpec> specs_;
};

struct PlanParseResult {
  std::optional<FaultPlan> plan;
  std::string error;  // set iff !plan
};

}  // namespace p2plab::fault
