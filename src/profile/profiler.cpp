#include "profile/profiler.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/assert.hpp"
#include "metrics/trace.hpp"

namespace p2plab::profile {

namespace {

std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Crash-path drain: installed per thread via set_thread_active. Reads of
/// other workers' rings are best-effort by design — the process is about to
/// abort, and a torn sample costs one bogus line in a post-mortem file.
thread_local Profiler* g_active_profiler = nullptr;

void crash_dump() {
  Profiler* const profiler = g_active_profiler;
  if (profiler == nullptr) return;
  if (profiler->write_perfetto_to_results(nullptr)) {
    std::fprintf(stderr, "p2plab: profiler rings dumped alongside the "
                         "flight recorder\n");
  }
}

}  // namespace

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::kExecute: return "execute";
    case Phase::kBarrier: return "barrier_wait";
    case Phase::kMerge: return "merge";
    case Phase::kCompact: return "compact";
  }
  return "unknown";
}

SampleRing::SampleRing(std::size_t capacity) {
  P2PLAB_ASSERT_MSG(capacity > 0, "profiler ring needs capacity");
  buf_.resize(capacity);
}

std::vector<PhaseSample> SampleRing::samples() const {
  std::vector<PhaseSample> out;
  const std::size_t n = size();
  out.reserve(n);
  // Oldest surviving sample: at next_ once wrapped, at 0 before.
  const std::size_t start = total_ <= buf_.size() ? 0 : next_;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(buf_[(start + i) % buf_.size()]);
  }
  return out;
}

Profiler::Profiler(std::size_t shards, std::size_t ring_capacity)
    : coordinator_ring_(ring_capacity), epoch_ns_(steady_now_ns()) {
  P2PLAB_ASSERT_MSG(shards >= 1, "profiler needs at least one shard ring");
  shard_rings_.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_rings_.push_back(std::make_unique<SampleRing>(ring_capacity));
  }
  stats_.resize(shards);
}

std::uint64_t Profiler::now_ns() const { return steady_now_ns() - epoch_ns_; }

Profiler::ThreadTime Profiler::thread_rusage() {
  ThreadTime t;
#ifdef RUSAGE_THREAD
  rusage usage{};
  if (getrusage(RUSAGE_THREAD, &usage) == 0) {
    auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    t.user_s = seconds(usage.ru_utime);
    t.sys_s = seconds(usage.ru_stime);
  }
#endif
  return t;
}

Profiler::Rollup Profiler::rollup() const {
  Rollup r;
  r.shards.resize(shard_count());
  std::uint64_t span_begin_ns = UINT64_MAX;
  std::uint64_t span_end_ns = 0;
  auto cover = [&](const SampleRing::Totals& t) {
    span_begin_ns = std::min(span_begin_ns, t.first_start_ns);
    span_end_ns = std::max(span_end_ns, t.last_end_ns);
  };
  auto seconds = [](const SampleRing::Totals& t, Phase phase) {
    return static_cast<double>(t.phase_ns[static_cast<std::size_t>(phase)]) *
           1e-9;
  };

  for (std::size_t k = 0; k < shard_count(); ++k) {
    const SampleRing::Totals& t = shard_rings_[k]->totals();
    cover(t);
    ShardRollup& shard = r.shards[k];
    shard.execute_s = seconds(t, Phase::kExecute);
    shard.barrier_wait_s = seconds(t, Phase::kBarrier);
    shard.merge_s = seconds(t, Phase::kMerge);
    shard.compact_s = seconds(t, Phase::kCompact);
    shard.events = t.execute_events;
    shard.max_queue_depth = t.max_queue_depth;
    shard.stats = stats_[k];
    r.ring_dropped += shard_rings_[k]->dropped();
  }
  cover(coordinator_ring_.totals());
  r.merge_s = seconds(coordinator_ring_.totals(), Phase::kMerge);
  r.ring_dropped += coordinator_ring_.dropped();

  if (span_end_ns > span_begin_ns) {
    r.span_s = static_cast<double>(span_end_ns - span_begin_ns) * 1e-9;
  }
  double accounted_s = 0.0;
  double wait_s = 0.0;
  double max_events = 0.0;
  double total_events = 0.0;
  for (ShardRollup& shard : r.shards) {
    if (r.span_s > 0.0) {
      shard.utilization_pct = 100.0 * shard.execute_s / r.span_s;
    }
    accounted_s += shard.execute_s + shard.barrier_wait_s + shard.merge_s +
                   shard.compact_s;
    wait_s += shard.barrier_wait_s;
    r.merge_s += shard.merge_s;
    max_events = std::max(max_events, static_cast<double>(shard.events));
    total_events += static_cast<double>(shard.events);
  }
  if (accounted_s > 0.0) r.barrier_wait_share = wait_s / accounted_s;
  if (r.span_s > 0.0) r.merge_share = r.merge_s / r.span_s;
  const double mean_events =
      total_events / static_cast<double>(r.shards.size());
  // 1.0 = perfectly balanced; an idle run reports neutral balance.
  r.imbalance_ratio = mean_events > 0.0 ? max_events / mean_events : 1.0;
  return r;
}

std::string Profiler::perfetto_json() const {
  std::vector<std::string> lines;
  char buf[256];
  auto meta = [&](unsigned tid, const char* key, const char* value) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\": \"M\", \"pid\": 1, \"tid\": %u, \"name\": "
                  "\"%s\", \"args\": {\"name\": \"%s\"}}",
                  tid, key, value);
    lines.emplace_back(buf);
  };
  meta(0, "process_name", "p2plab");
  meta(0, "thread_name", "coordinator");
  for (std::size_t s = 0; s < shard_count(); ++s) {
    std::snprintf(buf, sizeof buf, "shard %zu", s);
    const std::string name = buf;
    meta(static_cast<unsigned>(s + 1), "thread_name", name.c_str());
  }
  auto emit_ring = [&](unsigned tid, const SampleRing& ring) {
    for (const PhaseSample& s : ring.samples()) {
      std::snprintf(
          buf, sizeof buf,
          "{\"ph\": \"X\", \"pid\": 1, \"tid\": %u, \"ts\": %.3f, "
          "\"dur\": %.3f, \"cat\": \"bsp\", \"name\": \"%s\", \"args\": "
          "{\"window\": %llu, \"events\": %llu, \"queue\": %llu}}",
          tid, static_cast<double>(s.start_ns) / 1000.0,
          static_cast<double>(s.dur_ns) / 1000.0, phase_name(s.phase),
          static_cast<unsigned long long>(s.window),
          static_cast<unsigned long long>(s.events),
          static_cast<unsigned long long>(s.queue_depth));
      lines.emplace_back(buf);
    }
  };
  emit_ring(0, coordinator_ring_);
  for (std::size_t s = 0; s < shard_count(); ++s) {
    emit_ring(static_cast<unsigned>(s + 1), *shard_rings_[s]);
  }

  std::string json = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    json += lines[i];
    if (i + 1 < lines.size()) json += ',';
    json += '\n';
  }
  json += "]}\n";
  return json;
}

bool Profiler::write_perfetto_to_results(const char* filename) const {
  if (filename == nullptr) filename = crash_filename_.c_str();
  metrics::ResultsFile out(filename);
  if (out.stream() == nullptr) return false;
  std::fputs(perfetto_json().c_str(), out.stream());
  return out.close();
}

void Profiler::fold_into(metrics::Registry& reg) const {
  const Rollup r = rollup();
  char name[64];
  for (std::size_t k = 0; k < r.shards.size(); ++k) {
    std::snprintf(name, sizeof name, "profile.shard%zu.utilization_pct", k);
    reg.gauge(name).set(r.shards[k].utilization_pct);
  }
  reg.gauge("profile.barrier_wait.share").set(r.barrier_wait_share);
  reg.gauge("profile.merge.share").set(r.merge_share);
  reg.gauge("profile.imbalance.ratio").set(r.imbalance_ratio);
  reg.gauge("profile.ring.dropped")
      .set(static_cast<double>(r.ring_dropped));
}

void Profiler::set_crash_filename(std::string filename) {
  crash_filename_ = std::move(filename);
}

void Profiler::set_thread_active(Profiler* profiler) {
  g_active_profiler = profiler;
  detail::g_profile_assert_hook = profiler != nullptr ? &crash_dump : nullptr;
}

std::vector<int> Profiler::online_cpu_list() {
  std::vector<int> cpus;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) cpus.push_back(c);
    }
  }
  if (cpus.empty()) {
    // No affinity syscall (or an empty mask): fall back on the topology.
    const unsigned n = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned c = 0; c < n; ++c) cpus.push_back(static_cast<int>(c));
  }
  return cpus;
}

int Profiler::online_cores() {
  return static_cast<int>(online_cpu_list().size());
}

}  // namespace p2plab::profile
