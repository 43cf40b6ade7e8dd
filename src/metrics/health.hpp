// Emulator-health monitoring.
//
// Becker et al. (arXiv:2208.05862) caution that an overloaded emulator
// silently produces wrong results; the health monitor makes overload
// visible. The platform samples it every `period` of simulated time (under
// the engine's BSP barrier, core::Platform::attach_monitor) and it emits:
//
//   - a `metrics.csv` timeline (CsvWriter: stdout + $P2PLAB_RESULTS_DIR):
//     sim time, wall time, events dispatched, queue depth, events per wall
//     second, sim seconds per wall second, plus any tracked registry
//     metrics — the folding-ratio benches watch sim-per-wall collapse here;
//   - a wall-clock-rate-limited stderr heartbeat so a multi-hour bench run
//     is observable from a terminal;
//   - an end-of-run report (print_report) of overall rates and every
//     registry metric.
//
// The monitor schedules nothing: it is a passive sink fed HealthProbes, so
// drain-style runs finish with a monitor attached.
#pragma once

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/time.hpp"
#include "metrics/registry.hpp"
#include "metrics/trace.hpp"

namespace p2plab::metrics {

/// Print every registry metric as '#'-prefixed comment lines (safe to
/// interleave with CSV output).
void print_registry_report(const Registry& reg, std::FILE* out = stdout);

/// The platform-wide state one timeline row records.
struct HealthProbe {
  SimTime now;
  std::uint64_t events = 0;      // events dispatched so far
  std::size_t queue_depth = 0;   // events (and handoffs) pending
};

class HealthMonitor {
 public:
  struct Options {
    /// Simulated time between samples: a row falls due at every multiple
    /// of it and is taken at the first barrier at or past that time.
    Duration period = Duration::sec(60);
    /// CsvWriter name; the timeline lands in $P2PLAB_RESULTS_DIR/<name>.csv.
    std::string csv_name = "metrics";
    /// Registry metric names appended as extra timeline columns.
    std::vector<std::string> tracked;
    /// Minimum wall seconds between stderr heartbeats; <= 0 disables.
    double heartbeat_wall_seconds = 10.0;
  };

  HealthMonitor();
  explicit HealthMonitor(Options options);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Begin a monitored run against `reg`, at the state `at`. May be called
  /// again after stop() for a successive run (the fig9 fold sweep); rows
  /// append to the same timeline, distinguished by the label column.
  void start(Registry& reg, const HealthProbe& at);
  /// Tag subsequent rows (e.g. "fold=40"). Empty by default.
  void set_label(std::string label) { label_ = std::move(label); }
  /// True when a periodic sample is owed at simulated time `now`.
  bool due(SimTime now) const { return running() && now >= next_due_; }
  /// Record one timeline row; the next one falls due at the first
  /// multiple of the period past `at.now`.
  void sample(const HealthProbe& at) { sample(at, false); }
  /// Take a final sample and detach from the registry.
  void stop(const HealthProbe& at);

  bool running() const { return reg_ != nullptr; }
  std::uint64_t samples() const { return samples_; }
  /// Wall seconds spent between start() and stop(), summed over runs.
  double wall_seconds() const;
  /// Events dispatched while monitored, summed over completed runs.
  std::uint64_t events_observed() const { return done_events_; }

  /// Overall rates plus the full registry dump, as '#' comment lines.
  /// After stop(), dumps the registry of the last run — call it before
  /// that registry is destroyed.
  void print_report(std::FILE* out = stdout) const;

 private:
  using Clock = std::chrono::steady_clock;

  void sample(const HealthProbe& at, bool final_sample);

  Options opt_;
  std::unique_ptr<CsvWriter> csv_;
  Registry* reg_ = nullptr;
  Registry* last_reg_ = nullptr;  // registry of the last stopped run
  std::string label_;
  std::vector<std::string> row_;  // reused per sample; nothing accumulates
  SimTime next_due_;

  Clock::time_point run_wall_start_;
  Clock::time_point last_wall_;
  double last_heartbeat_wall_s_ = 0.0;
  std::uint64_t run_events_start_ = 0;
  std::uint64_t last_events_ = 0;
  SimTime last_sim_time_;
  std::uint64_t samples_ = 0;

  // Totals accumulated across completed runs (start/stop pairs).
  double done_wall_s_ = 0.0;
  std::uint64_t done_events_ = 0;
};

}  // namespace p2plab::metrics
