// The experiment runner: one ScenarioSpec in, one finished experiment out.
//
// ExperimentRunner owns the workload-agnostic stack — metrics registry,
// topology, platform, tracing/profiling — and every run step all
// experiments share:
//   * fault arming: churn expansion over the plugin's churn_victims(), the
//     explicit plan appended, the `# plan:` line, one FaultInjector;
//   * the failure list (FaultPlan::failure_windows) of the armed plan;
//   * the shared invariants: `# check` lines, fault/recovery pairing and
//     the event-queue drain after halt;
//   * run timing (wall clock and end of run) and the BENCH_*.json summary;
//   * the run record: the health timeline (`[outputs] metrics`, one row
//     per 60 simulated seconds up to the stop condition), trace.jsonl, the
//     profile, and the closing report every run ends with — a `# run:`
//     line (wall seconds, events, events per wall second) and the
//     registry dump.
// Everything else is the plugin's (workload.hpp): it builds its
// application, drives it to its stop condition, runs its own checks and
// writes its own files, calling the services below at the points its run
// needs them. The runner contains zero workload-specific branches: adding
// a protocol never touches this file.
//
// Lifecycle: setup() builds the stack (Workload::build, bind the platform's
// metrics, Workload::setup); execute() times the workload's run, closes
// the outputs and returns the process exit code (nonzero iff a check
// failed); run() does both. The split exists for callers that time the two
// apart or interpose between them: the emubench harness times set-up on
// its own and switches the profiler on before execute().
//
// A results file that cannot be written (full disk, unwritable
// $P2PLAB_RESULTS_DIR) gets one stderr warning (metrics::ResultsFile); the
// run still completes.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bittorrent/swarm.hpp"
#include "core/platform.hpp"
#include "fault/injector.hpp"
#include "metrics/health.hpp"
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

  // Services for Workload implementations, in the order a run uses them.

  /// Expand the spec's churn (forking its Rng off platform().rng() here),
  /// append the explicit plan, sort, print the `# plan:` line, then build,
  /// bind and arm the injector with the application's hooks. No-op when
  /// the spec has no faults. Call once, from Workload::setup().
  void arm_faults(fault::NodeHooks nodes, fault::ServiceHooks services = {});
  /// Every crash and leave of the armed plan; empty without faults.
  const std::vector<fault::FailureWindow>& failures() const {
    return failures_;
  }
  /// Faults injected and recovered so far (zero without faults).
  fault::InjectorStats fault_stats() const;

  /// Call right after the stop condition: fixes the run's wall time (from
  /// the start of execute()), its event count and end_of_run(), and takes
  /// the health timeline's final row.
  void stop_clock();
  /// Clock at stop_clock() (pre-drain); time-series outputs sample up to
  /// here.
  SimTime end_of_run() const { return end_of_run_; }

  /// Print `# check <what> ok|FAIL`; a FAIL makes execute() return 1.
  void check(bool ok, const char* what);
  /// The invariants every fault-capable workload shares: each injected
  /// fault recovered (then the `# faults:` line), and once `halt` has
  /// stopped the application the event queue drains within 700 s.
  void check_faults_and_drain(const std::function<void()>& halt);

  /// The standardized BENCH_*.json run summary (core/bench_report.hpp):
  /// the run economics plus the workload's scale field and any extra
  /// workload metrics. No-op when outputs.bench_json is empty. Call after
  /// stop_clock().
  void write_bench_json(
      const char* scale_key, double scale_value,
      const std::vector<std::pair<std::string, double>>& extra = {});

 private:
  /// The tail of every run: flush the flight recorder to
  /// outputs.trace_file, fold the profile and write its timeline, print
  /// the run report.
  void close_outputs();

  ScenarioSpec spec_;
  // Declaration order is destruction-order-critical: the registry must
  // outlive the platform (teardown increments bound counters), the
  // platform must outlive the workload (swarm users), and the workload its
  // fault injector, whose hooks point into it — injector_ is declared
  // after the workload so it is destroyed first.
  metrics::Registry registry_;
  std::unique_ptr<core::Platform> platform_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<metrics::HealthMonitor> monitor_;

  std::vector<fault::FailureWindow> failures_;
  std::chrono::steady_clock::time_point run_start_;
  double wall_seconds_ = 0.0;
  std::uint64_t events_ = 0;  // dispatched by stop_clock()
  SimTime end_of_run_;
  int failed_checks_ = 0;
  bool set_up_ = false;
};

}  // namespace p2plab::scenario
