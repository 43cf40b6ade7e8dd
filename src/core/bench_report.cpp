#include "core/bench_report.hpp"

#include <sys/resource.h>

#include <cstdio>

#include "metrics/trace.hpp"
#include "profile/profiler.hpp"

namespace p2plab::core {

std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
}

std::vector<std::pair<std::string, double>> bench_fields(
    Platform& platform, const char* scale_key, double scale_value,
    std::uint64_t seed, double wall_seconds) {
  const double events = static_cast<double>(platform.dispatched_events());
  // "cores" is the real online core count (the process affinity mask), not
  // hardware_concurrency: a cgroup-limited CI box may advertise 16 cores
  // while only 2 are schedulable, and scaling plots keyed on the wrong
  // number are worse than none. degraded_parallelism flags shards > cores:
  // the workers time-slice, so wall-clock is not a parallel datapoint.
  const std::size_t shards = platform.shard_count();
  const int online = profile::Profiler::online_cores();
  const bool degraded = shards > 1 && online < static_cast<int>(shards);
  std::vector<std::pair<std::string, double>> fields = {
      {scale_key, scale_value},
      {"shards", static_cast<double>(shards)},
      {"cores", static_cast<double>(online)},
      {"degraded_parallelism", degraded ? 1.0 : 0.0},
      {"seed", static_cast<double>(seed)},
      {"events", events},
      {"wall_seconds", wall_seconds},
      {"events_per_second", wall_seconds > 0 ? events / wall_seconds : 0},
      {"peak_rss_bytes", static_cast<double>(peak_rss_bytes())}};
  if (platform.profiling()) {
    const profile::Rollup roll = platform.profiler().rollup();
    const std::vector<int> cpus = platform.worker_cpus();
    bool pinned = false;
    for (std::size_t s = 0; s < roll.shards.size(); ++s) {
      const profile::ShardRollup& sh = roll.shards[s];
      const std::string prefix = "shard" + std::to_string(s) + "_";
      fields.emplace_back(prefix + "utilization_pct", sh.utilization_pct);
      fields.emplace_back(prefix + "user_s", sh.stats.user_s);
      fields.emplace_back(prefix + "sys_s", sh.stats.sys_s);
      const int cpu = s < cpus.size() ? cpus[s] : -1;
      fields.emplace_back(prefix + "cpu", static_cast<double>(cpu));
      pinned = pinned || cpu >= 0;
    }
    fields.emplace_back("pinned", pinned ? 1.0 : 0.0);
    fields.emplace_back("barrier_wait_share", roll.barrier_wait_share);
    fields.emplace_back("merge_share", roll.merge_share);
    fields.emplace_back("imbalance_ratio", roll.imbalance_ratio);
    fields.emplace_back("profile_ring_dropped",
                        static_cast<double>(roll.ring_dropped));
  }
  return fields;
}

void write_bench_json(
    const std::string& scenario, const std::string& name,
    const std::vector<std::pair<std::string, double>>& fields) {
  std::string json = "{\"scenario\": \"" + scenario + "\"";
  char buffer[64];
  for (const auto& [key, value] : fields) {
    std::snprintf(buffer, sizeof(buffer), "%.15g", value);
    json += ", \"" + key + "\": " + buffer;
  }
  json += "}";
  std::printf("# %s %s\n", name.c_str(), json.c_str());
  metrics::write_results_file(name + ".json", json + "\n");
}

}  // namespace p2plab::core
