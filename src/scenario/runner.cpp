#include "scenario/runner.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "common/assert.hpp"
#include "core/bench_report.hpp"

namespace p2plab::scenario {

namespace {

/// The flush_*_to_results calls also return false when no results dir is
/// set; only a failed write into a set one is worth a warning.
void warn_unwritten(const std::string& file) {
  const char* dir = std::getenv("P2PLAB_RESULTS_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::fprintf(stderr, "# P2PLAB_RESULTS_DIR=%s: writing %s failed\n", dir,
               file.c_str());
}

}  // namespace

ExperimentRunner::ExperimentRunner(ScenarioSpec spec)
    : spec_(std::move(spec)) {}

ExperimentRunner::~ExperimentRunner() = default;

void ExperimentRunner::setup() {
  P2PLAB_ASSERT(!set_up_);
  set_up_ = true;

  plugin_ = &WorkloadRegistry::instance().require(spec_.workload);
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

  workload_ = plugin_->create(spec_);
  workload_->setup(*this);
}

int ExperimentRunner::execute() {
  P2PLAB_ASSERT(set_up_);
  return workload_->execute(*this);
}

int ExperimentRunner::run() {
  setup();
  return execute();
}

void ExperimentRunner::write_profile_outputs() {
  if (!platform_->profiling()) return;
  // Fold first so the rollup shows up in the registry report and any
  // later metrics consumers; gauges are set, not added — idempotent.
  platform_->profiler().fold_into(registry_);
  // Profiling switched on through the platform alone (not `[engine]
  // profile`) names no timeline file: fold the rollup, write nothing.
  const std::string file = spec_.resolved_profile_trace();
  if (file.empty()) return;
  if (!platform_->flush_profile_to_results(file.c_str())) {
    warn_unwritten(file);
  }
}

void ExperimentRunner::write_trace_output() {
  const std::string& file = spec_.outputs.trace_file;
  if (file.empty()) return;
  if (!platform_->flush_trace_to_results(file.c_str())) warn_unwritten(file);
}

void ExperimentRunner::write_bench_json(
    double wall_seconds, const char* scale_key, double scale_value,
    const std::vector<std::pair<std::string, double>>& extra) {
  if (spec_.outputs.bench_json.empty()) return;
  std::vector<std::pair<std::string, double>> fields =
      core::bench_fields(*platform_, scale_key, scale_value,
                         spec_.engine.seed, wall_seconds);
  fields.insert(fields.end(), extra.begin(), extra.end());
  core::write_bench_json(spec_.name, spec_.outputs.bench_json, fields);
}

}  // namespace p2plab::scenario
