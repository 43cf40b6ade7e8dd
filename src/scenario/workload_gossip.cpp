// The `gossip` workload plugin: SWIM membership under churn (src/gossip).
// The run is time-bounded (stop=time); what the experiment measures is
// not completion but *detection* — how fast the cluster confirms each
// scheduled crash, and how often it wrongly confirms a node that was
// online (the false-positive rate the SWIM paper bounds via indirect
// probing + suspicion).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "fault/injector.hpp"
#include "gossip/cluster.hpp"
#include "metrics/health.hpp"
#include "metrics/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/workload.hpp"

namespace p2plab::scenario {

namespace {

/// One scheduled failure, with the instant the victim is back (rejoin
/// time, or +inf for permanent departures). Confirms inside the window
/// are true detections; confirms outside every window are false
/// positives.
struct FailureWindow {
  std::uint32_t victim = 0;
  SimTime down;
  SimTime up;  // SimTime::from_ns(max) when the victim never returns
};

std::vector<FailureWindow> failure_windows(const fault::FaultPlan& plan,
                                           std::size_t nodes) {
  const SimTime never =
      SimTime::from_ns(std::numeric_limits<std::int64_t>::max());
  std::vector<FailureWindow> windows;
  for (const fault::FaultSpec& spec : plan.specs()) {
    if (spec.kind != fault::FaultKind::kCrash &&
        spec.kind != fault::FaultKind::kLeave) {
      continue;
    }
    if (spec.node >= nodes) continue;
    FailureWindow w;
    w.victim = static_cast<std::uint32_t>(spec.node);
    w.down = spec.at;
    w.up = spec.kind == fault::FaultKind::kCrash && spec.rejoin
               ? spec.at + spec.duration
               : never;
    windows.push_back(w);
  }
  return windows;
}

class GossipWorkload final : public Workload {
 public:
  explicit GossipWorkload(const ScenarioSpec& spec) : spec_(spec) {}

  void setup(ExperimentRunner& runner) override;
  int execute(ExperimentRunner& runner) override;

 private:
  void setup_faults(ExperimentRunner& runner);
  void write_outputs(ExperimentRunner& runner, double wall_seconds,
                     const std::vector<gossip::ConfirmRecord>& confirms,
                     std::size_t false_confirms);

  const ScenarioSpec& spec_;
  std::unique_ptr<gossip::Cluster> cluster_;
  std::unique_ptr<fault::FaultInjector> injector_;
};

void GossipWorkload::setup(ExperimentRunner& runner) {
  core::Platform& platform = runner.platform();
  // Platform metrics first: registry_of_vnode (the per-shard registries
  // the cluster binds its gossip.* counters to) exists only after this.
  platform.bind_metrics(runner.registry());
  cluster_ = std::make_unique<gossip::Cluster>(platform, spec_.gossip);
  cluster_->bind_metrics();
  setup_faults(runner);
  cluster_->start();
}

void GossipWorkload::setup_faults(ExperimentRunner& runner) {
  core::Platform& platform = runner.platform();
  if (spec_.faults.empty()) return;

  fault::FaultPlan plan;
  if (spec_.faults.churn.enabled) {
    const ChurnDirective& d = spec_.faults.churn;
    Rng churn_rng = platform.rng().fork(d.rng_stream);
    fault::ChurnConfig churn;
    // Default victim range spares the introducer (node 0): with it down,
    // rejoining members could not re-enter and every detection after the
    // outage would measure the join path instead of the gossip path.
    churn.first_node = d.first_node.value_or(1);
    churn.last_node = d.last_node.value_or(spec_.gossip.nodes - 1);
    churn.fraction = d.fraction;
    churn.window_start = SimTime::zero() + d.window_start;
    churn.window_end = SimTime::zero() + d.window_end;
    churn.rejoin_fraction = d.rejoin_fraction;
    churn.rejoin_min = d.rejoin_min;
    churn.rejoin_max = d.rejoin_max;
    churn.leave_fraction = d.leave_fraction;
    plan = fault::FaultPlan::churn(churn, churn_rng);
  }
  plan.append(spec_.faults.plan);
  plan.sort();

  std::size_t node_failures = 0;
  for (const fault::FaultSpec& fault_spec : plan.specs()) {
    node_failures += fault_spec.kind == fault::FaultKind::kCrash ||
                     fault_spec.kind == fault::FaultKind::kLeave;
  }
  std::printf("# plan: %zu faults, %zu node failures (%zu members)\n",
              plan.size(), node_failures, spec_.gossip.nodes);

  injector_ = std::make_unique<fault::FaultInjector>(platform,
                                                     std::move(plan));
  injector_->bind_metrics(runner.registry());
  gossip::Cluster* cluster = cluster_.get();
  injector_->set_node_hooks(fault::NodeHooks{
      .on_crash = [cluster](std::size_t v) {
        if (v < cluster->size()) cluster->node(v).crash();
      },
      .on_leave = [cluster](std::size_t v) {
        if (v < cluster->size()) cluster->node(v).stop();
      },
      .on_rejoin = [cluster](std::size_t v) {
        if (v < cluster->size()) cluster->node(v).restart();
      }});
  injector_->arm();
}

int GossipWorkload::execute(ExperimentRunner& runner) {
  core::Platform& platform = runner.platform();
  const auto wall_start = std::chrono::steady_clock::now();
  platform.run(SimTime::zero() + spec_.engine.run_for);
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  runner.set_end_of_run(platform.now());

  const std::vector<gossip::ConfirmRecord> confirms =
      cluster_->confirm_log();
  const std::vector<FailureWindow> windows =
      injector_ ? failure_windows(injector_->plan(), cluster_->size())
                : std::vector<FailureWindow>{};
  // A confirm is false iff its victim was online when it fired — that is,
  // it falls inside none of the victim's downtime windows.
  std::size_t false_confirms = 0;
  for (const gossip::ConfirmRecord& record : confirms) {
    bool down = false;
    for (const FailureWindow& w : windows) {
      down |= w.victim == record.victim && record.at > w.down &&
              record.at < w.up;
    }
    false_confirms += !down;
  }

  std::size_t joined = 0;
  for (std::size_t i = 0; i < cluster_->size(); ++i) {
    joined += cluster_->node(i).joined();
  }
  std::printf("# gossip: %zu/%zu members joined at t=%.0f s; %zu confirms "
              "(%zu false); %llu events; %zu pnodes x %zu vnodes\n",
              joined, cluster_->size(), runner.end_of_run().to_seconds(),
              confirms.size(), false_confirms,
              static_cast<unsigned long long>(platform.dispatched_events()),
              platform.physical_node_count(), platform.folding_ratio());

  int failures = 0;
  if (spec_.engine.check_invariants) {
    auto check = [&](bool ok, const char* what) {
      std::printf("# check %-46s %s\n", what, ok ? "ok" : "FAIL");
      if (!ok) ++failures;
    };
    if (injector_) {
      check(injector_->stats().unrecovered() == 0,
            "every injected fault recovered");
      std::printf("# faults: injected=%llu recovered=%llu\n",
                  static_cast<unsigned long long>(
                      injector_->stats().injected),
                  static_cast<unsigned long long>(
                      injector_->stats().recovered));
    }
    // Stop every member and the event queue must drain — a leaked tick
    // or join retry would keep it alive forever.
    cluster_->schedule_halt_all();
    check(platform.run(platform.now() + Duration::sec(700)) ==
              core::Platform::RunResult::kDrained,
          "event queue drains after halt (no wedged timers)");
  }

  write_outputs(runner, wall_seconds, confirms, false_confirms);
  return failures == 0 ? 0 : 1;
}

void GossipWorkload::write_outputs(
    ExperimentRunner& runner, double wall_seconds,
    const std::vector<gossip::ConfirmRecord>& confirms,
    std::size_t false_confirms) {
  const OutputsSection& out = spec_.outputs;
  metrics::Registry& reg = runner.registry();

  if (!out.detection_csv.empty()) {
    // One row per scheduled failure: the cluster-wide first confirm
    // inside the downtime window, or -1 when nobody noticed before the
    // victim returned (or the run ended).
    metrics::CsvWriter csv(out.detection_csv,
                           {"victim", "crash_s", "first_confirm_s",
                            "detect_latency_s"});
    csv.comment("seed=" + std::to_string(spec_.engine.seed));
    const std::vector<FailureWindow> windows =
        injector_ ? failure_windows(injector_->plan(), cluster_->size())
                  : std::vector<FailureWindow>{};
    for (const FailureWindow& w : windows) {
      double first_confirm = -1.0;
      for (const gossip::ConfirmRecord& record : confirms) {
        if (record.victim == w.victim && record.at > w.down &&
            record.at < w.up) {
          first_confirm = record.at.to_seconds();
          break;  // confirm_log is time-sorted
        }
      }
      csv.row({static_cast<double>(w.victim), w.down.to_seconds(),
               first_confirm,
               first_confirm >= 0 ? first_confirm - w.down.to_seconds()
                                  : -1.0});
    }
  }

  if (!out.fp_summary.empty()) {
    metrics::CsvWriter csv(out.fp_summary,
                           {"confirms", "false_confirms",
                            "false_positive_rate", "suspects", "refutations",
                            "pings", "ping_reqs"});
    const double total = static_cast<double>(confirms.size());
    csv.row({total, static_cast<double>(false_confirms),
             total > 0 ? static_cast<double>(false_confirms) / total : 0.0,
             reg.value("gossip.suspects"), reg.value("gossip.refutations"),
             reg.value("gossip.pings"), reg.value("gossip.ping_reqs")});
  }

  runner.write_bench_json(
      wall_seconds, "nodes", static_cast<double>(spec_.gossip.nodes),
      {{"gossip.pings", reg.value("gossip.pings")},
       {"gossip.ping_reqs", reg.value("gossip.ping_reqs")},
       {"gossip.suspects", reg.value("gossip.suspects")},
       {"gossip.confirms", static_cast<double>(confirms.size())},
       {"gossip.refutations", reg.value("gossip.refutations")},
       {"gossip.false_positives", static_cast<double>(false_confirms)}});
  runner.write_trace_output();
  runner.write_profile_outputs();
  if (out.report) metrics::print_registry_report(reg);
}

class GossipPlugin final : public WorkloadPlugin {
 public:
  const char* name() const override { return "gossip"; }
  const char* description() const override {
    return "SWIM membership under churn: detection latency and "
           "false-positive rate";
  }

  std::vector<const char*> workload_keys() const override {
    return {"nodes",    "period",        "ping_timeout", "suspect_timeout",
            "indirect", "piggyback",     "join_interval"};
  }
  std::vector<const char*> output_keys() const override {
    return {"detection_csv", "fp_summary", "trace"};
  }

  bool parse_workload(ParamReader& reader,
                      ScenarioSpec& spec) const override {
    gossip::Config& config = spec.gossip;
    auto take_positive = [&](const char* key, Duration* target) {
      return reader.take_duration(key, target) &&
             reader.require(key, *target > Duration::zero(),
                            std::string(key) + " must be positive");
    };
    return reader.take_count("nodes", &config.nodes) &&
           reader.require("nodes", config.nodes >= 2,
                          "gossip needs nodes >= 2") &&
           take_positive("period", &config.period) &&
           take_positive("ping_timeout", &config.ping_timeout) &&
           take_positive("suspect_timeout", &config.suspect_timeout) &&
           reader.take_count("indirect", &config.indirect_k) &&
           reader.require("indirect", config.indirect_k > 0,
                          "indirect must be positive") &&
           reader.take_count("piggyback", &config.piggyback) &&
           reader.require("piggyback", config.piggyback > 0,
                          "piggyback must be positive") &&
           reader.take_duration("join_interval", &config.join_interval);
  }

  bool parse_outputs(ParamReader& reader, ScenarioSpec& spec) const override {
    bool ok = reader.take_string("detection_csv",
                                 &spec.outputs.detection_csv);
    ok = ok && reader.take_string("fp_summary", &spec.outputs.fp_summary);
    ok = ok && reader.take_string("trace", &spec.outputs.trace_file);
    return ok;
  }

  std::string validate_spec(const ScenarioSpec& spec) const override {
    if (spec.engine.stop != StopMode::kTime) {
      return "gossip requires stop=time (membership has no completion; "
             "run_for bounds the experiment)";
    }
    return "";
  }

  std::size_t vnodes(const ScenarioSpec& spec) const override {
    return spec.gossip.nodes;
  }
  bool supports_faults() const override { return true; }

  std::unique_ptr<Workload> create(const ScenarioSpec& spec) const override {
    return std::make_unique<GossipWorkload>(spec);
  }
};

}  // namespace

void register_gossip_workload(WorkloadRegistry& registry) {
  registry.add(std::make_unique<GossipPlugin>());
}

}  // namespace p2plab::scenario
