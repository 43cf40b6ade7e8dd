// Figure 8: evolution of the download of a 16 MB file by 160 BitTorrent
// clients (4 initial seeders, DSL links: 2 Mb/s down / 128 kb/s up /
// 30 ms, clients started 10 s apart, seeding after completion).
//
// Thin wrapper over scenarios/fig8.scn (kept for the P2PLAB_FIG8_CLIENTS
// knob and CI muscle memory): the experiment itself is the catalog spec,
// executed by the ExperimentRunner exactly as `p2plab_run` would.
//
// `--shards=N` (or P2PLAB_SHARDS=N; default 1) sets the engine's shard
// count; the event stream — and therefore every figure row — is
// bit-identical for any N (only the health timeline's wall-clock columns
// differ).
#include "bench_env.hpp"
#include "scenario/catalog.hpp"
#include "scenario/runner.hpp"

using namespace p2plab;

int main(int argc, char** argv) {
  bench::banner("Figure 8", "160-client download of a 16 MB file");
  scenario::ScenarioSpec spec =
      scenario::catalog::fig8(bench::env_size("P2PLAB_FIG8_CLIENTS", 160));
  spec.engine.shards = bench::shards(argc, argv);
  spec.engine.profile = bench::profile_enabled(argc, argv);
  scenario::ExperimentRunner runner(std::move(spec));
  return runner.run();
}
