// Figures 10 and 11: the scalability experiment. 5760 virtual nodes (5754
// clients, 4 seeders, 1 tracker) on 180 physical nodes — 32 virtual nodes
// per physical node — downloading the 16 MB file; clients start every
// 0.25 s and seed after completion.
//
// The full 5754-client run dispatches ~5x10^9 events (over an hour of
// wall clock); the default reproduces the experiment at 1440 clients with
// the same 32:1 folding ratio, which preserves every shape criterion.
// Set P2PLAB_FIG10_CLIENTS=5754 for the full-scale run.
//
// Thin wrapper over scenarios/fig10.scn: the experiment is the catalog
// spec, executed by the ExperimentRunner exactly as `p2plab_run` would.
// `--shards=N` (or P2PLAB_SHARDS=N) runs on the parallel engine; the
// event stream is bit-identical to --shards=1.
#include <string>

#include "bench_env.hpp"
#include "scenario/catalog.hpp"
#include "scenario/runner.hpp"

using namespace p2plab;

int main(int argc, char** argv) {
  scenario::ScenarioSpec spec = scenario::catalog::fig10(
      bench::env_size("P2PLAB_FIG10_CLIENTS", 1440));
  spec.engine.shards = bench::shards(argc, argv);
  spec.engine.profile = bench::profile_enabled(argc, argv);
  bench::banner("Figures 10+11",
                "scalability: " + std::to_string(spec.swarm.clients) +
                    " clients at 32 vnodes per pnode, " +
                    std::to_string(spec.engine.shards) + " shard(s)");
  scenario::ExperimentRunner runner(std::move(spec));
  return runner.run();
}
