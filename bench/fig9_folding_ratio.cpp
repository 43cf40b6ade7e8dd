// Figure 9: the folding-ratio validation. The same 160-client download is
// deployed at 1, 10, 20, 40 and 80 virtual nodes per physical node; the
// curves of total data received over time must be nearly identical
// ("results are nearly identical ... even with 80 virtual nodes on each
// physical node").
//
//   fig9_folding_ratio scenarios/fig8.scn [--set section.key=value]...
//
// The swarm is the one the given scenario file describes (normally
// fig8.scn; `--set workload.clients=24` shrinks it, `--set
// engine.shards=2` runs it on the parallel engine). Each fold re-deploys
// that spec on clients/fold + 1 physical nodes through the
// ExperimentRunner, with one output of its own: the health timeline
// fig9_metrics_fold<N>.csv (the paper watched every physical node's load;
// this watches the emulator's). Each fold's run ends with the runner's
// report. This harness adds only the merged per-fold byte curves and the
// divergence metric.
//
// Output: one total-bytes-received column per folding ratio on a common
// 10 s grid, plus the maximum relative divergence from the unfolded run.
#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench_env.hpp"
#include "core/bench_report.hpp"
#include "metrics/trace.hpp"
#include "scenario/parser.hpp"
#include "scenario/runner.hpp"

using namespace p2plab;

namespace {

int usage() {
  std::fprintf(stderr, "usage: fig9_folding_ratio <fig8.scn> "
                       "[--set section.key=value]...\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    if (arg == "--set" && i + 1 < argc) {
      overrides.emplace_back(argv[++i]);
    } else if (path.empty() && !arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      std::fprintf(stderr, "fig9_folding_ratio: unexpected argument '%s'\n",
                   argv[i]);
      return usage();
    }
  }
  if (path.empty()) return usage();
  auto parsed = scenario::parse_scenario_file(path, overrides);
  if (!parsed.spec) {
    std::fprintf(stderr, "fig9_folding_ratio: %s: %s\n", path.c_str(),
                 parsed.error.c_str());
    return 2;
  }
  const scenario::ScenarioSpec swarm_spec = std::move(*parsed.spec);
  if (swarm_spec.workload != "swarm") {
    std::fprintf(stderr, "fig9_folding_ratio: %s: needs a swarm workload, "
                         "not %s\n", path.c_str(), swarm_spec.workload.c_str());
    return 2;
  }

  bench::banner("Figure 9", "folding ratio: 1/10/20/40/80 vnodes per node");
  const std::size_t foldings[] = {1, 10, 20, 40, 80};

  const Duration step = Duration::sec(10);
  std::vector<std::vector<double>> curves;
  SimTime longest_end = SimTime::zero();
  std::uint64_t content_seed = 0;

  const std::size_t last_fold = foldings[std::size(foldings) - 1];
  for (const std::size_t fold : foldings) {
    bench::WallTimer fold_timer;
    // The paper's 160/16/8/4/2 deployments of the clients (tracker and
    // seeders ride along). The runner writes only the fold's timeline; the
    // cross-fold outputs are this harness's.
    scenario::ScenarioSpec spec = swarm_spec;
    spec.outputs = {};
    spec.outputs.metrics = "fig9_metrics_fold" + std::to_string(fold);
    spec.engine.fold.reset();
    spec.engine.physical_nodes = spec.swarm.clients / fold + 1;
    scenario::ExperimentRunner runner(std::move(spec));
    content_seed = runner.spec().swarm.content_seed;
    runner.run();
    core::Platform& platform = runner.platform();
    const SimTime end = platform.now() + step;
    longest_end = std::max(longest_end, end);
    curves.push_back(runner.swarm().total_bytes_curve(step, longest_end));
    // The paper: "we monitored the system load, the memory usage, and the
    // disk I/O on every physical node. None of them was a problem."
    double max_cpu = 0.0;
    for (std::size_t p = 0; p < platform.physical_node_count(); ++p) {
      max_cpu = std::max(max_cpu, platform.host(p).cpu_utilization());
    }
    std::printf("# folding %zux: %zu pnodes, done at %.0f s, %zu/%zu "
                "complete, max host CPU %.1f%%\n",
                fold, platform.physical_node_count(),
                platform.now().to_seconds(),
                runner.swarm().completed_count(),
                runner.swarm().client_count(), 100.0 * max_cpu);
    if (fold == last_fold) {
      // Standard run summary from the densest deployment (the paper's
      // stress case), profiler rollup included under
      // `--set engine.profile=on`.
      core::write_bench_json(
          "fig9", "BENCH_fig9",
          core::bench_fields(platform, "fold", static_cast<double>(fold),
                             runner.spec().engine.seed,
                             fold_timer.elapsed_seconds()));
    }
  }
  metrics::CsvWriter csv("fig9_folding_ratio",
                         {"time_s", "bytes_fold1", "bytes_fold10",
                          "bytes_fold20", "bytes_fold40", "bytes_fold80"});
  csv.comment("seed=" + std::to_string(content_seed));
  const std::size_t n_points = static_cast<std::size_t>(
      longest_end.count_ns() / step.count_ns()) + 1;
  for (std::size_t i = 0; i < n_points; ++i) {
    std::vector<double> row{static_cast<double>(i) * step.to_seconds()};
    for (const auto& curve : curves) {
      row.push_back(i < curve.size() ? curve[i] : curve.back());
    }
    csv.row(row);
  }

  // Divergence metric: max relative gap vs the unfolded deployment over
  // the mid-experiment window (ends are trivially equal).
  double worst = 0.0;
  for (std::size_t i = n_points / 10; i < 9 * n_points / 10; ++i) {
    const double base = curves[0][std::min(i, curves[0].size() - 1)];
    if (base < 1e6) continue;
    for (std::size_t f = 1; f < curves.size(); ++f) {
      const double v = curves[f][std::min(i, curves[f].size() - 1)];
      worst = std::max(worst, std::abs(v - base) / base);
    }
  }
  std::printf("# max mid-run divergence from 1x deployment: %.1f%% "
              "(paper: curves nearly identical)\n",
              100.0 * worst);
  return 0;
}
