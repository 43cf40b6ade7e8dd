// Emulator-health monitoring.
//
// Becker et al. (arXiv:2208.05862) caution that an overloaded emulator
// silently produces wrong results; the health monitor makes overload
// visible. The experiment runner attaches one to every run that names an
// `[outputs] metrics` file; the platform samples it every `period` of
// simulated time (under the engine's BSP barrier,
// core::Platform::attach_monitor) and it emits:
//
//   - a timeline (CsvWriter: stdout + $P2PLAB_RESULTS_DIR/<name>.csv) of
//     sim time, wall time, events dispatched, queue depth, events per wall
//     second and sim seconds per wall second, then the layer counters of
//     kTrackedColumns — the folding-ratio runs watch sim-per-wall
//     collapse here;
//   - a stderr heartbeat at most every kHeartbeatWallSeconds, so a
//     multi-hour run is observable from a terminal.
//
// The monitor schedules nothing: it is a passive sink fed HealthProbes, so
// drain-style runs finish with a monitor attached. It watches one run.
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
  /// Registry counters appended to every row, after the probe columns:
  /// the rule-scan, packet and NIC byte work of the run so far.
  static constexpr const char* kTrackedColumns[] = {
      "ipfw.rules_scanned", "net.packets_sent", "net.nic.tx_bytes",
      "net.nic.rx_bytes"};
  /// Minimum wall seconds between stderr heartbeats.
  static constexpr double kHeartbeatWallSeconds = 10.0;

  /// The timeline lands in $P2PLAB_RESULTS_DIR/<csv_name>.csv. A row falls
  /// due at every multiple of `period` of simulated time and is taken at
  /// the first barrier at or past it.
  HealthMonitor(const std::string& csv_name, Duration period);

  HealthMonitor(const HealthMonitor&) = delete;
  HealthMonitor& operator=(const HealthMonitor&) = delete;

  /// Begin the monitored run against `reg`, at the state `at`.
  void start(Registry& reg, const HealthProbe& at);
  /// True when a periodic sample is owed at simulated time `now`.
  bool due(SimTime now) const { return running() && now >= next_due_; }
  /// Record one timeline row; the next one falls due at the first
  /// multiple of the period past `at.now`.
  void sample(const HealthProbe& at) { sample(at, false); }
  /// Take the final sample and detach from the registry.
  void stop(const HealthProbe& at);

  bool running() const { return reg_ != nullptr; }
  std::uint64_t samples() const { return samples_; }

 private:
  using Clock = std::chrono::steady_clock;

  void sample(const HealthProbe& at, bool final_sample);

  Duration period_;
  std::unique_ptr<CsvWriter> csv_;
  Registry* reg_ = nullptr;
  std::vector<std::string> row_;  // reused per sample; nothing accumulates
  SimTime next_due_;

  Clock::time_point wall_start_;
  Clock::time_point last_wall_;
  double last_heartbeat_wall_s_ = 0.0;
  std::uint64_t last_events_ = 0;
  SimTime last_sim_time_;
  std::uint64_t samples_ = 0;
};

}  // namespace p2plab::metrics
