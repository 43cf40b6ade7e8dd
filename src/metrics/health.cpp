#include "metrics/health.hpp"

#include <iterator>

#include "common/assert.hpp"

namespace p2plab::metrics {

namespace {

double wall_s(std::chrono::steady_clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// First multiple of `period` strictly after `t`. The platform samples at
/// barrier times, which are shard-count independent, so the due grid and
/// the rows are too.
SimTime next_multiple(SimTime t, Duration period) {
  const std::int64_t p = period.count_ns();
  return SimTime::from_ns((t.count_ns() / p + 1) * p);
}

}  // namespace

void print_registry_report(const Registry& reg, std::FILE* out) {
  for (const auto& entry : reg.snapshot()) {
    if (entry.kind == MetricKind::kHistogram) {
      const HistogramData& h = *entry.hist;
      std::fprintf(out,
                   "# %s: count=%llu mean=%.4g min=%.4g max=%.4g\n",
                   entry.name.c_str(),
                   static_cast<unsigned long long>(h.count), h.mean(), h.min,
                   h.max);
    } else {
      std::fprintf(out, "# %s = %.10g\n", entry.name.c_str(), entry.value);
    }
  }
}

HealthMonitor::HealthMonitor(const std::string& csv_name, Duration period)
    : period_(period) {
  P2PLAB_ASSERT(period_ > Duration::zero());
  std::vector<std::string> columns{"sim_s",       "wall_s",
                                   "events",      "queue_depth",
                                   "events_per_wall_s",
                                   "sim_s_per_wall_s"};
  columns.insert(columns.end(), std::begin(kTrackedColumns),
                 std::end(kTrackedColumns));
  csv_ = std::make_unique<CsvWriter>(csv_name, columns);
}

void HealthMonitor::start(Registry& reg, const HealthProbe& at) {
  P2PLAB_ASSERT_MSG(!running() && samples_ == 0,
                    "a HealthMonitor watches one run");
  reg_ = &reg;
  wall_start_ = Clock::now();
  last_wall_ = wall_start_;
  last_events_ = at.events;
  last_sim_time_ = at.now;
  next_due_ = next_multiple(at.now, period_);
}

void HealthMonitor::stop(const HealthProbe& at) {
  if (!running()) return;
  sample(at, true);
  reg_ = nullptr;
}

void HealthMonitor::sample(const HealthProbe& at, bool final_sample) {
  const Clock::time_point wall_now = Clock::now();
  const double wall_total_s = wall_s(wall_now - wall_start_);
  const double wall_delta_s = wall_s(wall_now - last_wall_);
  const std::uint64_t events_delta = at.events - last_events_;
  const Duration sim_delta = at.now - last_sim_time_;

  // Rates over the sampling interval; 0 when wall time barely advanced
  // (coarse timers, back-to-back samples).
  const double events_per_wall_s =
      wall_delta_s > 1e-9 ? static_cast<double>(events_delta) / wall_delta_s
                          : 0.0;
  const double sim_per_wall =
      wall_delta_s > 1e-9 ? sim_delta.to_seconds() / wall_delta_s : 0.0;

  // The row buffer is a member reused across samples: the monitor streams
  // each row out immediately and holds no timeline in memory, so a
  // multi-hour run's footprint does not grow with its sample count.
  row_.clear();
  row_.push_back(std::to_string(at.now.to_seconds()));
  row_.push_back(std::to_string(wall_total_s));
  row_.push_back(std::to_string(at.events));
  row_.push_back(std::to_string(at.queue_depth));
  row_.push_back(std::to_string(events_per_wall_s));
  row_.push_back(std::to_string(sim_per_wall));
  for (const char* name : kTrackedColumns) {
    row_.push_back(std::to_string(reg_->value(name)));
  }
  csv_->row(row_);
  ++samples_;

  // Heartbeat: wall-clock rate limited, so a stalled simulation stays
  // quiet and a fast one does not spam (one line per ~10 wall seconds).
  if (!final_sample &&
      wall_total_s - last_heartbeat_wall_s_ >= kHeartbeatWallSeconds) {
    last_heartbeat_wall_s_ = wall_total_s;
    std::fprintf(stderr,
                 "[p2plab health] sim=%.0fs wall=%.0fs %.3g ev/s "
                 "%.3g sim-s/wall-s queue=%zu\n",
                 at.now.to_seconds(), wall_total_s, events_per_wall_s,
                 sim_per_wall, at.queue_depth);
    // Heartbeat cadence doubles as the timeline flush cadence: whoever is
    // watching the stderr pulse can tail the csv mirror at the same lag.
    csv_->flush();
  }

  last_wall_ = wall_now;
  last_events_ = at.events;
  last_sim_time_ = at.now;
  next_due_ = next_multiple(at.now, period_);
}

}  // namespace p2plab::metrics
