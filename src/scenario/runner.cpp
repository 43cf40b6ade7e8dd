#include "scenario/runner.hpp"

#include <cstdio>
#include <utility>

#include "common/assert.hpp"
#include "core/bench_report.hpp"

namespace p2plab::scenario {

ExperimentRunner::ExperimentRunner(ScenarioSpec spec)
    : spec_(std::move(spec)) {}

ExperimentRunner::~ExperimentRunner() = default;

void ExperimentRunner::setup() {
  P2PLAB_ASSERT(!set_up_);
  set_up_ = true;

  const topology::Topology topo =
      spec_.topology.built
          ? *spec_.topology.built
          : topology::homogeneous_dsl(spec_.vnodes(),
                                      spec_.topology.auto_link);
  core::PlatformConfig pc;
  pc.physical_nodes = spec_.resolved_physical_nodes();
  pc.seed = spec_.engine.seed;
  pc.shards = spec_.engine.shards;
  pc.pin_workers = spec_.engine.pin_workers;
  pc.stream.transport = spec_.engine.transport;
  platform_ = std::make_unique<core::Platform>(topo, pc);
  if (spec_.engine.trace) platform_->enable_tracing();
  if (spec_.engine.profile) {
    platform_->enable_profiling();
    platform_->profiler().set_crash_filename(spec_.resolved_profile_trace());
  }

  workload_ =
      WorkloadRegistry::instance().require(spec_.workload).create(spec_);
  workload_->build(*this);
  platform_->bind_metrics(registry_);
  workload_->setup(*this);
  if (!spec_.outputs.metrics.empty()) {
    monitor_ = std::make_unique<metrics::HealthMonitor>(spec_.outputs.metrics,
                                                        Duration::sec(60));
    platform_->attach_monitor(*monitor_);
  }
}

int ExperimentRunner::execute() {
  P2PLAB_ASSERT(set_up_);
  run_start_ = std::chrono::steady_clock::now();
  const int code = workload_->execute(*this);
  close_outputs();
  return code == 0 && failed_checks_ == 0 ? 0 : 1;
}

int ExperimentRunner::run() {
  setup();
  return execute();
}

void ExperimentRunner::arm_faults(fault::NodeHooks nodes,
                                  fault::ServiceHooks services) {
  P2PLAB_ASSERT(injector_ == nullptr);
  if (spec_.faults.empty()) return;

  // Churn schedules expand first, forked off the platform RNG at exactly
  // this point of construction, and the explicit plan appends behind them;
  // the stable time sort then keeps equal-time faults in that order.
  fault::FaultPlan plan;
  if (const ChurnDirective& d = spec_.faults.churn; d.enabled) {
    Rng churn_rng = platform_->rng().fork(d.rng_stream);
    const NodeRange victims = churn_range(spec_);
    plan = fault::FaultPlan::churn(
        fault::ChurnConfig{.first_node = victims.first,
                           .last_node = victims.last,
                           .fraction = d.fraction,
                           .window_start = SimTime::zero() + d.window_start,
                           .window_end = SimTime::zero() + d.window_end,
                           .rejoin_fraction = d.rejoin_fraction,
                           .rejoin_min = d.rejoin_min,
                           .rejoin_max = d.rejoin_max,
                           .leave_fraction = d.leave_fraction},
        churn_rng);
  }
  plan.append(spec_.faults.plan);
  plan.sort();
  failures_ = plan.failure_windows();
  std::printf("# plan: %zu faults, %zu node failures (%zu vnodes)\n",
              plan.size(), failures_.size(), spec_.vnodes());

  injector_ = std::make_unique<fault::FaultInjector>(*platform_,
                                                     std::move(plan));
  injector_->bind_metrics(registry_);
  injector_->set_node_hooks(std::move(nodes));
  injector_->set_service_hooks(std::move(services));
  injector_->arm();
}

fault::InjectorStats ExperimentRunner::fault_stats() const {
  return injector_ ? injector_->stats() : fault::InjectorStats{};
}

void ExperimentRunner::stop_clock() {
  wall_seconds_ = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - run_start_)
                      .count();
  events_ = platform_->dispatched_events();
  end_of_run_ = platform_->now();
  platform_->detach_monitor();
}

void ExperimentRunner::check(bool ok, const char* what) {
  std::printf("# check %-46s %s\n", what, ok ? "ok" : "FAIL");
  failed_checks_ += !ok;
}

void ExperimentRunner::check_faults_and_drain(
    const std::function<void()>& halt) {
  if (injector_) {
    const fault::InjectorStats& stats = injector_->stats();
    check(stats.unrecovered() == 0, "every injected fault recovered");
    std::printf("# faults: injected=%llu recovered=%llu\n",
                static_cast<unsigned long long>(stats.injected),
                static_cast<unsigned long long>(stats.recovered));
  }
  // Nothing wedged: stop the application and the event queue must drain —
  // any surviving retransmit timer, periodic task or join retry would keep
  // it non-empty.
  halt();
  check(platform_->run(platform_->now() + Duration::sec(700)) ==
            core::Platform::RunResult::kDrained,
        "event queue drains after halt (no wedged timers)");
}

void ExperimentRunner::write_bench_json(
    const char* scale_key, double scale_value,
    const std::vector<std::pair<std::string, double>>& extra) {
  if (spec_.outputs.bench_json.empty()) return;
  std::vector<std::pair<std::string, double>> fields =
      core::bench_fields(*platform_, scale_key, scale_value,
                         spec_.engine.seed, wall_seconds_);
  fields.insert(fields.end(), extra.begin(), extra.end());
  core::write_bench_json(spec_.name, spec_.outputs.bench_json, fields);
}

void ExperimentRunner::close_outputs() {
  if (!spec_.outputs.trace_file.empty()) {
    platform_->flush_trace_to_results(spec_.outputs.trace_file.c_str());
  }
  if (platform_->profiling()) {
    // Fold first so the rollup shows up in the run report and any later
    // metrics consumers; gauges are set, not added — idempotent.
    platform_->profiler().fold_into(registry_);
    // Profiling switched on through the platform alone (not `[engine]
    // profile`) names no timeline file: fold the rollup, write nothing.
    const std::string file = spec_.resolved_profile_trace();
    if (!file.empty()) platform_->flush_profile_to_results(file.c_str());
  }
  std::printf("# run: wall_s=%.3f events=%llu events_per_wall_s=%.4g\n",
              wall_seconds_, static_cast<unsigned long long>(events_),
              wall_seconds_ > 1e-9 ? static_cast<double>(events_) /
                                         wall_seconds_
                                   : 0.0);
  metrics::print_registry_report(registry_);
}

}  // namespace p2plab::scenario
