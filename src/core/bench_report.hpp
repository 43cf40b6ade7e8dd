// The standardized BENCH_*.json run summary, shared by every harness.
//
// One flat JSON object per run: the scenario name, the workload's scale
// field (clients / rules_max / flows / probes), the engine shape (shards,
// real online cores, degraded_parallelism), the run economics (events,
// wall_seconds, events_per_second, peak_rss_bytes) and — when the BSP
// profiler ran — the per-shard utilization rollup. The scenario runner and
// the fig bench mains all emit through here so the schema cannot drift:
// scripts/bench_gate.sh --scaling parses these fields by name and exits 2
// when one is missing.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/platform.hpp"

namespace p2plab::core {

/// Peak resident set size of this process (ru_maxrss; KiB on Linux).
std::size_t peak_rss_bytes();

/// The standard field list for one finished run on `platform`. Includes
/// the profiler rollup iff the platform profiled this run.
std::vector<std::pair<std::string, double>> bench_fields(
    Platform& platform, const char* scale_key, double scale_value,
    std::uint64_t seed, double wall_seconds);

/// Serialize `{"scenario": "<scenario>", fields...}` (15 significant
/// digits, so event counts up to 2^53 survive the double round-trip),
/// echo `# <name> <json>` to stdout and write it to <name>.json in the
/// results directory (metrics::ResultsFile).
void write_bench_json(const std::string& scenario, const std::string& name,
                      const std::vector<std::pair<std::string, double>>&
                          fields);

}  // namespace p2plab::core
