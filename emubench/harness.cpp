// emubench_harness: times one generated scenario through the public
// scenario API and records what each iteration did.
//
//   emubench_harness <file.scn> --seconds S --trace 0|1 --out records.jsonl
//
// Every iteration parses the file (parse_scenario_file), builds the
// experiment (ExperimentRunner::setup) and runs it (execute), each timed
// on its own. Iterations repeat until S seconds have passed; the first one
// also takes a memory census of the fresh process. After each untraced
// iteration, kSetupReps further parse+setup cycles, torn down without
// running, give the set-up time more samples. Around each execute() a
// fixed reference kernel (reference.hpp) measures the host's speed.
//
// With --trace 1 the second half of the time runs traced iterations: the
// BSP profiler on (Platform::enable_profiling, sized so its rings drop
// nothing) and the SIGPROF stack sampler (sampler.hpp) charging host time
// to p2plab modules. The untraced iterations before them are the base of
// the tracing overhead.
//
// One JSON object per line goes to --out; the program's own chatter and
// CSV outputs stay on stdout. emubench/run.py turns the records into
// metrics and checks them.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "profile/profiler.hpp"
#include "reference.hpp"
#include "sampler.hpp"
#include "scenario/parser.hpp"
#include "scenario/runner.hpp"

namespace emubench {
namespace {

using Clock = std::chrono::steady_clock;
using p2plab::scenario::ExperimentRunner;
using p2plab::scenario::ScenarioSpec;

// Registry entries the per-layer metrics are computed from.
constexpr const char* kCounters[] = {
    "sim.events.dispatched",  "sim.events.scheduled",
    "sim.events.cancelled",   "net.packets_sent",
    "net.bytes_sent",         "net.pool.misses",
    "ipfw.rules_scanned",     "ipfw.packets_classified",
    "ipfw.pipe.drops_burst",  "ipfw.pipe.drops_down",
    "ipfw.pipe.drops_loss",   "ipfw.pipe.drops_overflow",
    "sockets.msgs_sent",      "sockets.connects_started",
    "sockets.retransmits",    "bt.piece_completions",
    "bt.chokes_sent",         "bt.unchokes_sent",
    "gossip.pings",           "gossip.ping_reqs"};

// Sampling period of the traced iterations, in microseconds of CPU time.
constexpr long kSampleIntervalUs = 1000;
// Set-up-only cycles after each untraced iteration.
constexpr int kSetupReps = 20;
constexpr std::size_t kSampleCapacity = 1 << 16;
// Profiler ring capacity of the first traced iteration; later ones size
// their rings from the sample totals the previous one saw.
constexpr std::size_t kFirstRingCapacity = 1 << 16;
constexpr int kMaxRingAttempts = 3;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds of the whole process (all threads) so far.
struct CpuTime {
  double user_s = 0.0;
  double sys_s = 0.0;
};

CpuTime cpu_time() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(usage.ru_utime), sec(usage.ru_stime)};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double rss_mb() {
  std::ifstream statm("/proc/self/statm");
  double size_pages = 0;
  double resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

std::uint64_t fnv1a(std::uint64_t hash, const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}
constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

std::string hex(std::uint64_t value) {
  char buffer[20];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

/// One flat JSON object, built field by field.
class Record {
 public:
  explicit Record(const char* kind) { text("kind", kind); }

  Record& num(const std::string& key, double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return raw(key, buffer);
  }
  Record& text(const std::string& key, const std::string& value) {
    return raw(key, "\"" + value + "\"");
  }
  Record& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "{\"" : ", \"") + key + "\": " + json;
    return *this;
  }
  void write(std::FILE* out) const {
    std::fprintf(out, "%s}\n", body_.c_str());
    std::fflush(out);
  }

 private:
  std::string body_;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Data rows of a CsvWriter file: the header and '#' comments skipped.
std::vector<std::vector<double>> csv_rows(const std::string& text) {
  std::vector<std::vector<double>> rows;
  std::istringstream lines(text);
  std::string line;
  bool header = true;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (header) {
      header = false;
      continue;
    }
    std::vector<double> row;
    std::istringstream cells(line);
    std::string cell;
    while (std::getline(cells, cell, ',')) row.push_back(std::stod(cell));
    rows.push_back(std::move(row));
  }
  return rows;
}

std::string results_path(const std::string& name) {
  const char* dir = std::getenv("P2PLAB_RESULTS_DIR");
  if (dir == nullptr || name.empty()) return "";
  return std::string(dir) + "/" + name + ".csv";
}

ScenarioSpec parse(const std::string& path, double* parse_s) {
  const auto start = Clock::now();
  p2plab::scenario::ParseResult result =
      p2plab::scenario::parse_scenario_file(path);
  *parse_s = seconds_since(start);
  if (!result.spec) throw std::runtime_error(path + ": " + result.error);
  return std::move(*result.spec);
}

/// The CPUs the engine's workers run on: where they were pinned in the
/// last run, or before the first run the CPUs pinning will pick.
std::vector<int> worker_cpus(const p2plab::core::Platform& platform) {
  std::vector<int> cpus;
  for (const int cpu : platform.worker_cpus()) {
    if (cpu >= 0) cpus.push_back(cpu);
  }
  if (cpus.empty()) {
    const std::vector<int> online =
        p2plab::profile::Profiler::online_cpu_list();
    const std::size_t count = std::min(platform.shard_count(), online.size());
    cpus.assign(online.begin(),
                online.begin() + static_cast<std::ptrdiff_t>(count));
  }
  return cpus;
}

/// The simulated outcome of a swarm run: who completed, and when.
void swarm_verdicts(ExperimentRunner& runner, Record& record) {
  p2plab::bt::Swarm& swarm = runner.swarm();
  std::uint64_t hash = kFnvBasis;
  std::size_t completed = 0;
  for (std::size_t i = 0; i < swarm.client_count(); ++i) {
    const p2plab::bt::Client& client = swarm.client(i);
    const std::int64_t ns =
        client.has_completed() ? client.completion_time().count_ns() : -1;
    completed += client.has_completed();
    hash = fnv1a(hash, &ns, sizeof ns);
  }
  record.num("clients", static_cast<double>(swarm.client_count()))
      .num("completed", static_cast<double>(completed))
      .text("completion_hash", hex(hash));
}

/// The membership verdicts of a gossip run, from its two verdict outputs:
/// one detection row per scheduled crash (first confirm, or -1 if none)
/// and the confirm / false-confirm summary.
void gossip_verdicts(const ScenarioSpec& spec, Record& record) {
  const std::string detection =
      read_file(results_path(spec.outputs.detection_csv));
  std::size_t crashes = 0;
  std::size_t missed = 0;
  for (const std::vector<double>& row : csv_rows(detection)) {
    ++crashes;
    missed += row.size() < 3 || row[2] < 0;
  }
  const std::vector<std::vector<double>> summary =
      csv_rows(read_file(results_path(spec.outputs.fp_summary)));
  if (summary.size() != 1 || summary[0].size() < 2) {
    throw std::runtime_error("malformed " + spec.outputs.fp_summary);
  }
  record.num("crashes", static_cast<double>(crashes))
      .num("missed", static_cast<double>(missed))
      .num("confirms", summary[0][0])
      .num("false_confirms", summary[0][1])
      .text("detection_hash",
            hex(fnv1a(kFnvBasis, detection.data(), detection.size())));
}

enum class Mode { kPlain, kCensus, kTraced };

struct TracedState {
  StackSampler sampler{kSampleCapacity};
  std::size_t ring_capacity = kFirstRingCapacity;
  bool clean = false;  // some traced iteration dropped no profiler sample
};

void run_iteration(const std::string& path, Mode mode, TracedState* traced,
                   std::FILE* out) {
  const double rss_before = mode == Mode::kCensus ? rss_mb() : 0.0;
  double parse_s = 0.0;
  ScenarioSpec spec = parse(path, &parse_s);
  // Stale verdict outputs must not pass for this run's.
  for (const std::string& name :
       {spec.outputs.detection_csv, spec.outputs.fp_summary}) {
    if (!results_path(name).empty()) std::remove(results_path(name).c_str());
  }
  ExperimentRunner runner(std::move(spec));
  const auto setup_start = Clock::now();
  runner.setup();
  const double setup_s = seconds_since(setup_start);
  const double rss_after_setup = mode == Mode::kCensus ? rss_mb() : 0.0;

  p2plab::core::Platform& platform = runner.platform();
  // The host's speed just before and just after the run (reference.hpp).
  // The census iteration measures only after its run, and only once its
  // peak RSS is read: the kernel's memory must not count toward that peak.
  const double reference_before_s =
      mode == Mode::kCensus ? 0.0 : reference_seconds(worker_cpus(platform));
  if (mode == Mode::kTraced) {
    platform.enable_profiling(traced->ring_capacity);
    traced->sampler.start(kSampleIntervalUs);
  }
  const CpuTime cpu_start = cpu_time();
  const auto run_start = Clock::now();
  const int exit_code = runner.execute();
  const double run_s = seconds_since(run_start);
  const CpuTime cpu_end = cpu_time();
  if (mode == Mode::kTraced) traced->sampler.stop();
  const double peak_rss_after_run = peak_rss_mb();
  const double reference_after_s = reference_seconds(worker_cpus(platform));
  const double reference_s = mode == Mode::kCensus
                                 ? reference_after_s
                                 : (reference_before_s + reference_after_s) / 2;

  const std::size_t shards = platform.shard_count();
  const int cores = p2plab::profile::Profiler::online_cores();
  std::string cpus = "[";
  for (const int cpu : platform.worker_cpus()) {
    cpus += (cpus.size() > 1 ? ", " : "") + std::to_string(cpu);
  }
  cpus += "]";

  Record record(mode == Mode::kTraced ? "traced" : "iteration");
  record.text("workload", runner.spec().workload)
      .num("parse_s", parse_s)
      .num("setup_s", setup_s)
      .num("run_s", run_s)
      .num("reference_s", reference_s)
      .num("cpu_s", cpu_end.user_s + cpu_end.sys_s - cpu_start.user_s -
                        cpu_start.sys_s)
      .num("sys_s", cpu_end.sys_s - cpu_start.sys_s)
      .num("exit_code", exit_code)
      .num("events", static_cast<double>(platform.dispatched_events()))
      .num("pending_events", static_cast<double>(platform.pending_events()))
      .num("vnodes", static_cast<double>(platform.vnode_count()))
      .num("shards", static_cast<double>(shards))
      .num("cores", cores)
      .num("degraded_parallelism",
           shards > 1 && cores < static_cast<int>(shards) ? 1 : 0)
      .raw("worker_cpus", cpus);
  if (runner.spec().workload == "swarm") {
    swarm_verdicts(runner, record);
  } else {
    gossip_verdicts(runner.spec(), record);
  }
  std::string counters = "{";
  for (const char* name : kCounters) {
    char buffer[96];
    std::snprintf(buffer, sizeof buffer, "%s\"%s\": %.17g",
                  counters.size() > 1 ? ", " : "", name,
                  runner.registry().value(name));
    counters += buffer;
  }
  record.raw("counters", counters + "}");

  if (mode == Mode::kCensus) {
    record.num("rss_before_setup_mb", rss_before)
        .num("rss_after_setup_mb", rss_after_setup)
        .num("peak_rss_after_run_mb", peak_rss_after_run);
  }
  if (mode == Mode::kTraced) {
    const p2plab::profile::Profiler& profiler = platform.profiler();
    const p2plab::profile::Rollup rollup = profiler.rollup();
    double min_utilization = 100.0;
    for (const p2plab::profile::ShardRollup& shard : rollup.shards) {
      min_utilization = std::min(min_utilization, shard.utilization_pct);
    }
    std::uint64_t windows = 0;
    for (const p2plab::profile::PhaseSample& sample :
         profiler.shard_ring(0).samples()) {
      windows = std::max(windows, sample.window + 1);
    }
    std::uint64_t ring_total = profiler.coordinator_ring().total();
    for (std::size_t s = 0; s < profiler.shard_count(); ++s) {
      ring_total = std::max(ring_total, profiler.shard_ring(s).total());
    }
    record.num("ring_dropped", static_cast<double>(rollup.ring_dropped))
        .num("barrier_wait_share", rollup.barrier_wait_share)
        .num("merge_share", rollup.merge_share)
        .num("imbalance_ratio", rollup.imbalance_ratio)
        .num("min_utilization_pct", min_utilization)
        .num("windows", static_cast<double>(windows));
    traced->clean = traced->clean || rollup.ring_dropped == 0;
    traced->ring_capacity = std::max(
        traced->ring_capacity,
        static_cast<std::size_t>(ring_total + ring_total / 8 + 1024));
  }
  record.write(out);
}

void run_setup_only(const std::string& path, std::FILE* out) {
  double parse_s = 0.0;
  ExperimentRunner runner(parse(path, &parse_s));
  const auto setup_start = Clock::now();
  runner.setup();
  Record("setup")
      .num("parse_s", parse_s)
      .num("setup_s", seconds_since(setup_start))
      .write(out);
}

struct Options {
  std::string scenario;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 == argc) throw std::runtime_error(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--seconds") {
      options.seconds = std::stod(value());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--out") {
      options.out = value();
    } else if (options.scenario.empty() && arg[0] != '-') {
      options.scenario = arg;
    } else {
      throw std::runtime_error("unknown argument '" + arg + "'");
    }
  }
  if (options.scenario.empty() || options.out.empty()) {
    throw std::runtime_error(
        "usage: emubench_harness <file.scn> --out FILE [--seconds S] "
        "[--trace 0|1]");
  }
  return options;
}

int run(const Options& options) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(options.out.c_str(), "w"), std::fclose);
  if (file == nullptr) throw std::runtime_error("cannot write " + options.out);
  std::FILE* out = file.get();
  const auto start = Clock::now();
  const double untraced_s =
      options.trace ? options.seconds / 2 : options.seconds;

  // Set-up cycles are spread over the untraced period, so one burst of
  // host noise cannot decide their median.
  Mode mode = Mode::kCensus;
  do {
    run_iteration(options.scenario, mode, nullptr, out);
    for (int i = 0; i < kSetupReps; ++i) {
      run_setup_only(options.scenario, out);
    }
    mode = Mode::kPlain;
  } while (seconds_since(start) < untraced_s);
  if (options.trace) {
    TracedState traced;
    int attempts = 0;
    do {
      run_iteration(options.scenario, Mode::kTraced, &traced, out);
      ++attempts;
    } while (traced.clean ? seconds_since(start) < options.seconds
                          : attempts < kMaxRingAttempts);
    const StackSampler::Attribution attribution = traced.sampler.attribute();
    std::string modules = "{";
    for (const auto& [module, count] : attribution.by_module) {
      modules += (modules.size() > 1 ? ", \"" : "\"") + module +
                 "\": " + std::to_string(count);
    }
    Record("samples")
        .num("total", static_cast<double>(attribution.total))
        .num("unattributed", static_cast<double>(attribution.unattributed))
        .raw("modules", modules + "}")
        .write(out);
  }
  return 0;
}

}  // namespace
}  // namespace emubench

int main(int argc, char** argv) {
  try {
    return emubench::run(emubench::parse_options(argc, argv));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "emubench_harness: %s\n", error.what());
    return 2;
  }
}
