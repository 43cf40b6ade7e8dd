// The experiment runner: one ScenarioSpec in, one finished experiment out.
//
// ExperimentRunner owns only the workload-agnostic stack — metrics
// registry, topology, platform, tracing/profiling — and delegates
// everything workload-specific to the plugin the spec's `[workload] type`
// resolves to (workload.hpp). setup() builds the platform and asks the
// plugin's Workload to build itself on it; execute() hands control to the
// workload, which drives the run to its stop condition and writes its
// outputs. The runner contains zero workload-specific branches: adding a
// protocol never touches this file.
//
// Lifecycle: setup() builds the stack, execute() drives the run and writes
// every declared output, run() does both and returns the process exit code
// (nonzero iff an enabled invariant check failed). The split exists for
// callers that interpose between construction and execution — fig9 runs
// one external HealthMonitor across five runner instances.
//
// A results file that cannot be written (full disk, unwritable
// $P2PLAB_RESULTS_DIR) gets one stderr warning; the run still completes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bittorrent/swarm.hpp"
#include "core/platform.hpp"
#include "metrics/registry.hpp"
#include "scenario/spec.hpp"
#include "scenario/workload.hpp"

namespace p2plab::scenario {

class ExperimentRunner {
 public:
  explicit ExperimentRunner(ScenarioSpec spec);
  ~ExperimentRunner();

  ExperimentRunner(const ExperimentRunner&) = delete;
  ExperimentRunner& operator=(const ExperimentRunner&) = delete;

  /// Build the platform and the workload, arm the faults. Call once.
  void setup();
  /// Drive the run to its stop condition, evaluate the enabled invariant
  /// checks and write every declared output. Returns the exit code:
  /// 0, or 1 if any check failed. Requires setup().
  int execute();
  /// setup() + execute().
  int run();

  const ScenarioSpec& spec() const { return spec_; }
  /// Valid after setup().
  core::Platform& platform() { return *platform_; }
  metrics::Registry& registry() { return registry_; }

  /// Valid after setup(), swarm workloads only (defined in
  /// workload_swarm.cpp beside the type it casts to).
  bt::Swarm& swarm();
  /// Median completion time (seconds) of the finished clients; -1 if none.
  /// Valid after execute(). Swarm workloads only.
  double median_completion_sec() const;

  // Shared services for Workload implementations.
  /// Clock right after the stop condition (pre-drain); time-series outputs
  /// sample up to here.
  void set_end_of_run(SimTime t) { end_of_run_ = t; }
  SimTime end_of_run() const { return end_of_run_; }
  /// Fold the BSP profile into the registry and flush the Perfetto
  /// timeline; no-op when profiling is off. The timeline is written only
  /// when the spec names one (`[engine] profile`), not when profiling was
  /// enabled on the platform directly.
  void write_profile_outputs();
  /// Flush the flight recorder to outputs.trace_file; no-op when no trace
  /// file is declared.
  void write_trace_output();
  /// The standardized BENCH_*.json run summary (core/bench_report.hpp):
  /// the run economics plus the workload's scale field and any extra
  /// workload metrics. No-op when outputs.bench_json is empty.
  void write_bench_json(
      double wall_seconds, const char* scale_key, double scale_value,
      const std::vector<std::pair<std::string, double>>& extra = {});

 private:
  ScenarioSpec spec_;
  // Declaration order is destruction-order-critical: the registry must
  // outlive the platform (teardown increments bound counters), and the
  // platform must outlive the workload (swarm/injector/monitor users) —
  // workload_ is declared last so it is destroyed first.
  metrics::Registry registry_;
  std::unique_ptr<core::Platform> platform_;
  const WorkloadPlugin* plugin_ = nullptr;
  std::unique_ptr<Workload> workload_;

  SimTime end_of_run_;
  bool set_up_ = false;
};

}  // namespace p2plab::scenario
