// Shared helpers for the figure harnesses.
#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace p2plab::bench {

/// Integer knob from the environment (experiment scaling overrides).
/// A set-but-malformed or negative value is fatal (exit 2) — silently
/// falling back to the default used to turn e.g. P2PLAB_CHURN_BASELINE=0
/// into 1 and typos into full-scale runs. 0 is a valid value.
inline std::size_t env_size(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  char* end = nullptr;
  const long long parsed = std::strtoll(value, &end, 10);
  if (end == value || *end != '\0' || parsed < 0) {
    std::fprintf(stderr, "%s='%s' is not a non-negative integer\n", name,
                 value);
    std::exit(2);
  }
  return static_cast<std::size_t>(parsed);
}

/// Boolean switch value: on|off|1|0|true|false. Anything else is fatal
/// (exit 2) — a typo like --profile=yse must not silently disable
/// profiling on the run someone is waiting on.
inline bool parse_switch(const char* what, std::string_view text) {
  if (text == "on" || text == "1" || text == "true") return true;
  if (text == "off" || text == "0" || text == "false") return false;
  std::fprintf(stderr,
               "bad value '%.*s' for %s (expected on|off|1|0|true|false)\n",
               static_cast<int>(text.size()), text.data(), what);
  std::exit(2);
}

/// Whether this bench run profiles: `--profile` / `--profile=on|off` on
/// the command line, else P2PLAB_PROFILE (on|off|1|0|true|false), else
/// off. Malformed values are fatal (exit 2).
inline bool profile_enabled(int argc, char** argv) {
  bool result = false;
  if (const char* env = std::getenv("P2PLAB_PROFILE")) {
    if (*env != '\0') result = parse_switch("P2PLAB_PROFILE", env);
  }
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view prefix = "--profile=";
    if (arg == "--profile") {
      result = true;
    } else if (arg.substr(0, prefix.size()) == prefix) {
      result = parse_switch("--profile", arg.substr(prefix.size()));
    }
  }
  return result;
}

/// Shard count for the parallel engine: `--shards=N` on the command line,
/// else P2PLAB_SHARDS, else 1. Any other argument except the `--profile`
/// forms (owned by profile_enabled(), accepted by every harness that calls
/// this), or an unparseable or zero count, is fatal (exit 2) — flags must
/// never be silently swallowed.
inline std::size_t shards(int argc, char** argv) {
  std::size_t result = env_size("P2PLAB_SHARDS", 1);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view prefix = "--shards=";
    if (arg == "--profile" || arg.substr(0, 10) == "--profile=") {
      continue;  // validated by profile_enabled()
    }
    if (arg.substr(0, prefix.size()) == prefix) {
      const char* text = argv[i] + prefix.size();
      char* end = nullptr;
      const long long parsed = std::strtoll(text, &end, 10);
      if (end == text || *end != '\0' || parsed < 1) {
        std::fprintf(stderr, "bad shard count in '%s'\n", argv[i]);
        std::exit(2);
      }
      result = static_cast<std::size_t>(parsed);
    } else {
      std::fprintf(stderr,
                   "unknown argument '%s' (supported: --shards=N, "
                   "--profile[=on|off])\n", argv[i]);
      std::exit(2);
    }
  }
  if (result == 0) {
    std::fprintf(stderr, "P2PLAB_SHARDS=0: the engine needs at least 1 "
                         "shard\n");
    std::exit(2);
  }
  return result;
}

/// Peak resident set size of this process, in bytes (ru_maxrss is KiB on
/// Linux).
inline std::size_t peak_rss_bytes() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::size_t>(usage.ru_maxrss) * 1024;
}

/// Wall-clock stopwatch, started at construction.
class WallTimer {
 public:
  double elapsed_seconds() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// Machine-readable run summary: a flat JSON object written to
/// $P2PLAB_RESULTS_DIR/<name>.json (and echoed to stdout as a comment).
/// Values print with up to 15 significant digits, so event counts up to
/// 2^53 survive the double round-trip.
inline void write_bench_json(
    const std::string& name,
    const std::vector<std::pair<std::string, double>>& fields) {
  std::string json = "{";
  char buffer[64];
  for (std::size_t i = 0; i < fields.size(); ++i) {
    std::snprintf(buffer, sizeof(buffer), "%.15g", fields[i].second);
    json += (i == 0 ? "\"" : ", \"") + fields[i].first + "\": " + buffer;
  }
  json += "}";
  std::printf("# %s %s\n", name.c_str(), json.c_str());
  if (const char* dir = std::getenv("P2PLAB_RESULTS_DIR")) {
    const std::string path = std::string(dir) + "/" + name + ".json";
    if (std::FILE* f = std::fopen(path.c_str(), "w")) {
      std::fprintf(f, "%s\n", json.c_str());
      std::fclose(f);
    } else {
      std::fprintf(stderr, "# P2PLAB_RESULTS_DIR=%s is not writable; %s "
                           "only on stdout\n", dir, name.c_str());
    }
  }
}

inline void banner(const char* figure, const std::string& description) {
  std::printf("# === %s: %s ===\n", figure, description.c_str());
}

}  // namespace p2plab::bench
