// The scenario DSL: one file per experiment.
//
// A `.scn` file opens with `scenario <name>` and then holds up to five
// bracketed sections, in the grammar every experiment file shares
// (common/text.hpp): '#' starts a comment anywhere outside double quotes,
// values with spaces are double-quoted, a key is given at most once.
// Grammar (DESIGN.md §10 documents every key and value range):
//
//   scenario fig8
//
//   [topology]            # optional; default: auto (homogeneous DSL)
//   auto [down=2M up=128k latency=30ms loss=0]
//   # ... or `include <file.topo>`, or inline topology DSL directives
//   # (zone/container/latency — see topology/parser.hpp)
//
//   [workload]
//   type swarm            # or gossip, ping_sweep, validate
//   clients 160           # swarm: seeders, file_size, start_interval,
//   start_interval 10     # content_seed, max_duration; the other types'
//                         # keys: DESIGN.md §10
//
//   [faults]              # optional; `include <file.fault>`, inline fault
//   crash node=5 at=30    # directives (fault/plan.hpp), and/or one
//   churn fraction=0.3 window=200..1200 rejoin=0.5   # generated schedule
//
//   [engine]
//   shards 1              # >= 1; transport, fold K, seed, pin,
//   stop all_complete     # survivors_complete | time (+ run_for),
//   check_invariants off  # on: survivors, fault pairing, queue drain
//
//   [outputs]             # every key names a file in $P2PLAB_RESULTS_DIR
//   progress_envelope fig8_progress_envelope
//   completions fig8_completion_times
//   bench_json BENCH_fig8
//   trace trace.jsonl     # naming trace / profile_trace switches it on
//
// Durations follow the fault-file convention (bare numbers are seconds);
// sizes take k/M/G (KiB/MiB/GiB) suffixes; bandwidths and link latencies in
// `auto`/inline topology lines follow the topology DSL convention.
//
// `--set section.key=value` overrides (the p2plab_run flags) replace the
// matching entry after the file is read; errors they cause are reported
// against the override, not a file line.
//
// The file is lexed once; inline [topology]/[faults] lines go to the
// topology and fault parsers as token lines. Errors carry the line number
// of the offending directive, inline blocks included, and errors inside an
// `include`d file are prefixed with the including line and path.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/spec.hpp"

namespace p2plab::scenario {

struct ParseResult {
  std::optional<ScenarioSpec> spec;  // nullopt on error
  std::string error;                 // human-readable, with line number
};

struct ParseOptions {
  /// Directory `include` paths are resolved against ("" = cwd).
  std::string base_dir;
  /// "section.key=value" overrides, applied after the file is read.
  std::vector<std::string> overrides;
};

ParseResult parse_scenario(std::string_view source,
                           const ParseOptions& options = {});

/// Read and parse `path`; includes resolve against its directory.
ParseResult parse_scenario_file(const std::string& path,
                                const std::vector<std::string>& overrides = {});

/// The pipe-joined `[engine]` key list — the single source the unknown-key
/// parser error and `p2plab_run --list-workloads` both print.
const std::string& engine_keys();

}  // namespace p2plab::scenario
