// The `swarm` workload plugin: the BitTorrent swarm experiments
// (Figs 8-11, churn). Construction order matters and is preserved from
// the pre-registry runner exactly — the swarm is built before the
// platform's counters are bound, the churn RNG forked after the swarm
// exists — so spec-driven runs stay bit-identical to the hand-written
// benches they replaced.
#include <cstdio>
#include <memory>
#include <vector>

#include "bittorrent/swarm.hpp"
#include "common/assert.hpp"
#include "metrics/stats.hpp"
#include "metrics/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/workload.hpp"

namespace p2plab::scenario {

namespace {

/// Sampling step of the time-series outputs (progress envelope, sampled
/// curves): the resolution of the paper's Figs 8 and 10.
constexpr Duration kOutputGrid = Duration::sec(10);

/// Median completion time (seconds) of the finished clients; -1 if none.
double median_completion_sec(const bt::Swarm& swarm) {
  metrics::Distribution d;
  for (const double t : swarm.completion_times_sec()) d.add(t);
  return d.count() > 0 ? d.median() : -1.0;
}

class SwarmWorkload final : public Workload {
 public:
  explicit SwarmWorkload(const ScenarioSpec& spec) : spec_(spec) {}

  void build(ExperimentRunner& runner) override;
  void setup(ExperimentRunner& runner) override;
  int execute(ExperimentRunner& runner) override;

  bt::Swarm& swarm() { return *swarm_; }

 private:
  void write_outputs(ExperimentRunner& runner);

  const ScenarioSpec& spec_;
  std::unique_ptr<bt::Swarm> swarm_;
  std::size_t first_client_vnode_ = 0;
  std::vector<bool> faulted_;  // per client: scheduled to crash or leave
  std::vector<bool> rejoins_;  // per client: scheduled to come back
};

// The counters have never seen the swarm's construction (the tracker's
// start, the seeders' and the staggered client starts): Swarm binds the
// platform's metrics itself, after it is built.
void SwarmWorkload::build(ExperimentRunner& runner) {
  swarm_ = std::make_unique<bt::Swarm>(runner.platform(), spec_.swarm);
}

void SwarmWorkload::setup(ExperimentRunner& runner) {
  swarm_->bind_metrics(runner.registry());
  first_client_vnode_ = 1 + spec_.swarm.seeders;

  // vnode layout contract: 0 = tracker, 1..seeders = seeders, rest clients.
  auto process_of = [this](std::size_t v) -> bt::Client* {
    if (v >= first_client_vnode_) {
      return &swarm_->client(v - first_client_vnode_);
    }
    if (v >= 1) return &swarm_->seeder(v - 1);
    return nullptr;  // tracker: infrastructure-only, use tracker_outage
  };
  runner.arm_faults(
      fault::NodeHooks{
          .on_crash = [process_of](std::size_t v) {
            if (bt::Client* c = process_of(v)) c->crash();
          },
          .on_leave = [process_of](std::size_t v) {
            if (bt::Client* c = process_of(v)) c->stop();
          },
          .on_rejoin = [process_of](std::size_t v) {
            if (bt::Client* c = process_of(v)) c->start();
          }},
      fault::ServiceHooks{
          .on_tracker_outage = [this] { swarm_->tracker().set_online(false); },
          .on_tracker_restore = [this] {
            swarm_->tracker().set_online(true);
          }});

  // Which clients fail, and which of those come back (a client's last
  // failure decides). Seeder and tracker failures get no survivor
  // accounting.
  faulted_.assign(spec_.swarm.clients, false);
  rejoins_.assign(spec_.swarm.clients, false);
  for (const fault::FailureWindow& w : runner.failures()) {
    if (w.node < first_client_vnode_ ||
        w.node >= first_client_vnode_ + spec_.swarm.clients) {
      continue;
    }
    faulted_[w.node - first_client_vnode_] = true;
    rejoins_[w.node - first_client_vnode_] = w.rejoins();
  }
}

int SwarmWorkload::execute(ExperimentRunner& runner) {
  core::Platform& platform = runner.platform();
  auto count_survivors = [this] {
    std::size_t done = 0;
    for (std::size_t c = 0; c < spec_.swarm.clients; ++c) {
      done += (!faulted_[c] || rejoins_[c]) &&
              swarm_->client(c).has_completed();
    }
    return done;
  };
  std::size_t expected_survivors = 0;
  for (std::size_t c = 0; c < spec_.swarm.clients; ++c) {
    expected_survivors += !faulted_[c] || rejoins_[c];
  }

  switch (spec_.engine.stop) {
    case StopMode::kAllComplete:
      swarm_->run();
      break;
    case StopMode::kSurvivorsComplete:
      platform.run(SimTime::zero() + spec_.swarm.max_duration,
                   [&] { return count_survivors() == expected_survivors; },
                   Duration::sec(5));
      break;
    case StopMode::kTime:
      platform.run(SimTime::zero() + spec_.engine.run_for);
      break;
  }
  runner.stop_clock();
  std::printf("# %zu/%zu clients complete at t=%.0f s; %llu events; "
              "%zu pnodes x %zu vnodes\n",
              swarm_->completed_count(), swarm_->client_count(),
              runner.end_of_run().to_seconds(),
              static_cast<unsigned long long>(platform.dispatched_events()),
              platform.physical_node_count(), platform.folding_ratio());

  if (spec_.engine.check_invariants) {
    if (spec_.engine.stop == StopMode::kSurvivorsComplete) {
      const std::size_t survivors = count_survivors();
      runner.check(survivors == expected_survivors,
                   "churn: every surviving leecher completes");
      std::printf("# survivors complete: %zu/%zu (of %zu clients)\n",
                  survivors, expected_survivors, spec_.swarm.clients);
    } else {
      runner.check(swarm_->all_complete(), "all clients complete");
    }
    runner.check_faults_and_drain([this] {
      for (std::size_t c = 0; c < spec_.swarm.clients; ++c) {
        swarm_->client(c).stop();
      }
      for (std::size_t s = 0; s < spec_.swarm.seeders; ++s) {
        swarm_->seeder(s).stop();
      }
      swarm_->tracker().set_online(false);
    });
  }

  write_outputs(runner);
  return 0;
}

void SwarmWorkload::write_outputs(ExperimentRunner& runner) {
  const OutputsSection& out = spec_.outputs;
  // The median is the clean reference a churn run is read against: run
  // fig8.scn at the churn run's client count and compare the two.
  const double median = median_completion_sec(*swarm_);
  runner.write_bench_json("clients",
                          static_cast<double>(spec_.swarm.clients),
                          {{"median_completion_s", median}});
  // Time-series outputs sample on the grid up to one step past the stop
  // condition (not past the invariant drain).
  const SimTime grid_end = runner.end_of_run() + kOutputGrid;

  if (!out.progress_envelope.empty()) {
    metrics::CsvWriter envelope(
        out.progress_envelope,
        {"time_s", "pct_min", "pct_p25", "pct_median", "pct_p75", "pct_max",
         "clients_complete"});
    envelope.comment("seed=" + std::to_string(spec_.swarm.content_seed));
    for (SimTime t = SimTime::zero(); t <= grid_end; t += kOutputGrid) {
      metrics::Distribution pct;
      std::size_t complete = 0;
      for (std::size_t i = 0; i < swarm_->client_count(); ++i) {
        pct.add(swarm_->client(i).progress().value_at(t));
        complete += swarm_->client(i).has_completed() &&
                    swarm_->client(i).completion_time() <= t;
      }
      envelope.row({t.to_seconds(), pct.min(), pct.quantile(0.25),
                    pct.median(), pct.quantile(0.75), pct.max(),
                    static_cast<double>(complete)});
    }
  }

  if (!out.completions.empty()) {
    metrics::CsvWriter completions(out.completions,
                                   {"client", "start_s", "completion_s"});
    for (std::size_t i = 0; i < swarm_->client_count(); ++i) {
      completions.row(
          {static_cast<double>(i),
           static_cast<double>(i) * spec_.swarm.start_interval.to_seconds(),
           swarm_->client(i).has_completed()
               ? swarm_->client(i).completion_time().to_seconds()
               : -1.0});
    }
    if (!out.completions_note.empty()) {
      completions.comment(out.completions_note);
    }
  }

  if (!out.sampled_progress.empty()) {
    metrics::CsvWriter sampled(out.sampled_progress,
                               {"client", "time_s", "pct_done"});
    sampled.comment("seed=" + std::to_string(spec_.swarm.content_seed));
    const std::size_t every = out.sampled_every;
    for (std::size_t c = every; c <= swarm_->client_count(); c += every) {
      const auto& series = swarm_->client(c - 1).progress();
      for (SimTime t = SimTime::zero(); t <= grid_end; t += kOutputGrid) {
        sampled.row({static_cast<double>(c), t.to_seconds(),
                     series.value_at(t)});
      }
    }
  }

  if (!out.completion_curve.empty()) {
    metrics::CsvWriter curve_csv(out.completion_curve,
                                 {"time_s", "clients_complete"});
    const auto curve = swarm_->completion_curve();
    for (const auto& [t, count] : curve.points()) {
      curve_csv.row({t.to_seconds(), count});
    }
    if (!out.completion_curve_note.empty()) {
      curve_csv.comment(out.completion_curve_note);
    }
  }

  if (!out.summary.empty()) {
    metrics::CsvWriter summary(out.summary,
                               {"median_completion_s", "failed_nodes",
                                "rejoined_nodes", "faults_injected",
                                "faults_recovered"});
    std::size_t rejoined = 0;
    for (std::size_t c = 0; c < spec_.swarm.clients; ++c) {
      rejoined += rejoins_[c];
    }
    const fault::InjectorStats faults = runner.fault_stats();
    summary.row({median, static_cast<double>(runner.failures().size()),
                 static_cast<double>(rejoined),
                 static_cast<double>(faults.injected),
                 static_cast<double>(faults.recovered)});
  }
}

class SwarmPlugin final : public WorkloadPlugin {
 public:
  const char* name() const override { return "swarm"; }
  const char* description() const override {
    return "BitTorrent swarm experiments (Figs 8-11, churn, flash crowd)";
  }

  std::vector<const char*> workload_keys() const override {
    return {"clients",      "seeders",      "file_size",
            "start_interval", "content_seed", "max_duration"};
  }
  std::vector<const char*> output_keys() const override {
    return {"progress_envelope", "completions",      "completions_note",
            "sampled_progress",  "sampled_every",    "completion_curve",
            "completion_curve_note", "summary"};
  }

  bool parse_workload(ParamReader& reader,
                      ScenarioSpec& spec) const override {
    bt::SwarmConfig& swarm = spec.swarm;
    return reader.take_count("clients", &swarm.clients) &&
           reader.require("clients", swarm.clients > 0,
                          "clients must be positive") &&
           reader.take_count("seeders", &swarm.seeders) &&
           reader.take_size("file_size", &swarm.file_size) &&
           reader.take_duration("start_interval", &swarm.start_interval) &&
           reader.take_count("content_seed", &swarm.content_seed) &&
           reader.take_duration("max_duration", &swarm.max_duration);
  }

  bool parse_outputs(ParamReader& reader, ScenarioSpec& spec) const override {
    OutputsSection& out = spec.outputs;
    return reader.take_string("progress_envelope", &out.progress_envelope) &&
           reader.take_string("completions", &out.completions) &&
           reader.take_string("completions_note", &out.completions_note) &&
           reader.take_string("sampled_progress", &out.sampled_progress) &&
           reader.take_count("sampled_every", &out.sampled_every) &&
           reader.require("sampled_every", out.sampled_every > 0,
                          "sampled_every must be positive") &&
           reader.take_string("completion_curve", &out.completion_curve) &&
           reader.take_string("completion_curve_note",
                              &out.completion_curve_note) &&
           reader.take_string("summary", &out.summary);
  }

  std::size_t vnodes(const ScenarioSpec& spec) const override {
    return bt::swarm_vnodes(spec.swarm);
  }
  bool supports_faults() const override { return true; }
  NodeRange churn_victims(const ScenarioSpec& spec) const override {
    return {1 + spec.swarm.seeders, spec.swarm.seeders + spec.swarm.clients};
  }
  bool supports_survivors_stop() const override { return true; }

  std::unique_ptr<Workload> create(const ScenarioSpec& spec) const override {
    return std::make_unique<SwarmWorkload>(spec);
  }
};

}  // namespace

void register_swarm_workload(WorkloadRegistry& registry) {
  registry.add(std::make_unique<SwarmPlugin>());
}

// The swarm-only runner facade lives beside the concrete type it casts
// to; the assert keeps the cast honest without RTTI.
bt::Swarm& ExperimentRunner::swarm() {
  P2PLAB_ASSERT_MSG(spec_.workload == "swarm",
                    "swarm() is only valid for swarm workloads");
  return static_cast<SwarmWorkload&>(*workload_).swarm();
}

}  // namespace p2plab::scenario
