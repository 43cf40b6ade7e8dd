// Shared helpers for the figure harnesses.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

namespace p2plab::bench {

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
/// the command line, else off. Any other argument or a malformed value is
/// fatal (exit 2) — flags must never be silently swallowed.
inline bool profile_enabled(int argc, char** argv) {
  bool result = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg(argv[i]);
    constexpr std::string_view prefix = "--profile=";
    if (arg == "--profile") {
      result = true;
    } else if (arg.substr(0, prefix.size()) == prefix) {
      result = parse_switch("--profile", arg.substr(prefix.size()));
    } else {
      std::fprintf(stderr, "unknown argument '%s' (supported: "
                           "--profile[=on|off])\n", argv[i]);
      std::exit(2);
    }
  }
  return result;
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

inline void banner(const char* figure, const std::string& description) {
  std::printf("# === %s: %s ===\n", figure, description.c_str());
}

}  // namespace p2plab::bench
