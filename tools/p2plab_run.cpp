// p2plab_run: the one experiment driver.
//
//   p2plab_run <file.scn> [--set section.key=value]... [--print-outputs]
//
// Parses the scenario, applies the overrides, and executes it through the
// ExperimentRunner — every shipped experiment (scenarios/*.scn) runs
// through this binary with zero experiment-specific C++. The exit code is
// the run's: nonzero on a parse error, an unknown flag, or a failed
// invariant check.
//
// --print-outputs lists the files the scenario will write into
// $P2PLAB_RESULTS_DIR (one per line) without running anything; the CI
// smoke matrix diffs this against what a run actually produced.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "scenario/parser.hpp"
#include "scenario/runner.hpp"
#include "scenario/workload.hpp"

namespace {

int usage(std::FILE* out) {
  std::fprintf(out,
               "usage: p2plab_run <file.scn> [--set section.key=value]... "
               "[--profile] [--print-outputs]\n"
               "       p2plab_run --list-workloads\n");
  return out == stdout ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> overrides;
  bool print_outputs = false;
  bool profile = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") return usage(stdout);
    if (arg == "--list-workloads") {
      // The registry is the single source of truth: this list is exactly
      // what `[workload] type` accepts.
      for (const auto* plugin :
           p2plab::scenario::WorkloadRegistry::instance().plugins()) {
        std::printf("%-12s %s\n", plugin->name(), plugin->description());
      }
      // Same single-source deal for [engine]: this is the list the parser's
      // unknown-key error enumerates.
      std::printf("\n[engine] keys: %s\n",
                  p2plab::scenario::engine_keys().c_str());
      return 0;
    }
    if (arg == "--print-outputs") {
      print_outputs = true;
    } else if (arg == "--profile") {
      profile = true;
    } else if (arg == "--set") {
      if (i + 1 == argc) {
        std::fprintf(stderr, "p2plab_run: --set needs section.key=value\n");
        return usage(stderr);
      }
      overrides.emplace_back(argv[++i]);
    } else if (arg.rfind("--set=", 0) == 0) {
      overrides.push_back(arg.substr(std::strlen("--set=")));
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "p2plab_run: unknown flag '%s'\n", arg.c_str());
      return usage(stderr);
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "p2plab_run: more than one scenario file "
                           "('%s' and '%s')\n", path.c_str(), arg.c_str());
      return usage(stderr);
    }
  }
  if (path.empty()) return usage(stderr);

  auto result = p2plab::scenario::parse_scenario_file(path, overrides);
  if (!result.spec) {
    std::fprintf(stderr, "p2plab_run: %s: %s\n", path.c_str(),
                 result.error.c_str());
    return 2;
  }
  p2plab::scenario::ScenarioSpec spec = std::move(*result.spec);
  // Applied before --print-outputs so the declared list matches what a
  // `--profile` run would actually write.
  if (profile && spec.outputs.profile_trace.empty()) {
    spec.outputs.profile_trace = "profile.json";
  }

  if (print_outputs) {
    for (const std::string& file : spec.declared_outputs()) {
      std::printf("%s\n", file.c_str());
    }
    return 0;
  }

  std::printf("# === scenario %s: %s workload, %zu vnodes on %zu pnodes, "
              "shards=%zu ===\n",
              spec.name.c_str(),
              spec.workload.c_str(),
              spec.vnodes(), spec.resolved_physical_nodes(),
              spec.engine.shards);
  p2plab::scenario::ExperimentRunner runner(std::move(spec));
  return runner.run();
}
