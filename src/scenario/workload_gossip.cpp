// The `gossip` workload plugin: SWIM membership under churn (src/gossip).
// The run is time-bounded (stop=time); what the experiment measures is
// not completion but *detection* — how fast the cluster confirms each
// scheduled crash, and how often it wrongly confirms a node that was
// online (the false-positive rate the SWIM paper bounds via indirect
// probing + suspicion).
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "gossip/cluster.hpp"
#include "metrics/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/workload.hpp"

namespace p2plab::scenario {

namespace {

/// A confirm is true iff it falls inside one of its victim's downtime
/// windows (the victim was offline when it fired).
bool inside(const fault::FailureWindow& w, const gossip::ConfirmRecord& r) {
  return w.node == r.victim && r.at > w.down && r.at < w.up;
}

class GossipWorkload final : public Workload {
 public:
  explicit GossipWorkload(const ScenarioSpec& spec) : spec_(spec) {}

  void setup(ExperimentRunner& runner) override;
  int execute(ExperimentRunner& runner) override;

 private:
  void write_outputs(ExperimentRunner& runner,
                     const std::vector<gossip::ConfirmRecord>& confirms,
                     std::size_t false_confirms);

  const ScenarioSpec& spec_;
  std::unique_ptr<gossip::Cluster> cluster_;
};

void GossipWorkload::setup(ExperimentRunner& runner) {
  cluster_ = std::make_unique<gossip::Cluster>(runner.platform(), spec_.gossip);
  cluster_->bind_metrics();
  gossip::Cluster* cluster = cluster_.get();
  runner.arm_faults(fault::NodeHooks{
      .on_crash = [cluster](std::size_t v) {
        if (v < cluster->size()) cluster->node(v).crash();
      },
      .on_leave = [cluster](std::size_t v) {
        if (v < cluster->size()) cluster->node(v).stop();
      },
      .on_rejoin = [cluster](std::size_t v) {
        if (v < cluster->size()) cluster->node(v).restart();
      }});
  cluster_->start();
}

int GossipWorkload::execute(ExperimentRunner& runner) {
  core::Platform& platform = runner.platform();
  platform.run(SimTime::zero() + spec_.engine.run_for);
  runner.stop_clock();

  const std::vector<gossip::ConfirmRecord> confirms =
      cluster_->confirm_log();
  std::size_t false_confirms = 0;
  for (const gossip::ConfirmRecord& record : confirms) {
    bool down = false;
    for (const fault::FailureWindow& w : runner.failures()) {
      down |= inside(w, record);
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

  if (spec_.engine.check_invariants) {
    runner.check_faults_and_drain([this] { cluster_->schedule_halt_all(); });
  }

  write_outputs(runner, confirms, false_confirms);
  return 0;
}

void GossipWorkload::write_outputs(
    ExperimentRunner& runner,
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
    for (const fault::FailureWindow& w : runner.failures()) {
      double first_confirm = -1.0;
      for (const gossip::ConfirmRecord& record : confirms) {
        if (inside(w, record)) {
          first_confirm = record.at.to_seconds();
          break;  // confirm_log is time-sorted
        }
      }
      csv.row({static_cast<double>(w.node), w.down.to_seconds(),
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
      "nodes", static_cast<double>(spec_.gossip.nodes),
      {{"gossip.pings", reg.value("gossip.pings")},
       {"gossip.ping_reqs", reg.value("gossip.ping_reqs")},
       {"gossip.suspects", reg.value("gossip.suspects")},
       {"gossip.confirms", static_cast<double>(confirms.size())},
       {"gossip.refutations", reg.value("gossip.refutations")},
       {"gossip.false_positives", static_cast<double>(false_confirms)}});
}

class GossipPlugin final : public WorkloadPlugin {
 public:
  const char* name() const override { return "gossip"; }
  const char* description() const override {
    return "SWIM membership under churn: detection latency and "
           "false-positive rate";
  }

  std::vector<const char*> workload_keys() const override {
    return {"nodes", "suspect_timeout"};
  }
  std::vector<const char*> output_keys() const override {
    return {"detection_csv", "fp_summary"};
  }

  bool parse_workload(ParamReader& reader,
                      ScenarioSpec& spec) const override {
    gossip::Config& config = spec.gossip;
    return reader.take_count("nodes", &config.nodes) &&
           reader.require("nodes", config.nodes >= 2,
                          "gossip needs nodes >= 2") &&
           reader.take_duration("suspect_timeout", &config.suspect_timeout) &&
           reader.require("suspect_timeout",
                          config.suspect_timeout > Duration::zero(),
                          "suspect_timeout must be positive");
  }

  bool parse_outputs(ParamReader& reader, ScenarioSpec& spec) const override {
    return reader.take_string("detection_csv", &spec.outputs.detection_csv) &&
           reader.take_string("fp_summary", &spec.outputs.fp_summary);
  }

  std::string validate_spec(const ScenarioSpec& spec) const override {
    if (spec.engine.stop != StopMode::kTime) {
      return "gossip requires stop=time (membership has no completion; "
             "run_for bounds the experiment)";
    }
    // Member i starts at i x kJoinInterval: one that starts at or after
    // the end of the run never joins and only skews the join count. The
    // test divides instead of multiplying, so no node count overflows it.
    const std::uint64_t last = spec.gossip.nodes - 1;
    constexpr auto interval =
        static_cast<std::uint64_t>(gossip::kJoinInterval.count_ns());
    const auto run = static_cast<std::uint64_t>(spec.engine.run_for.count_ns());
    if (interval >= run / last + (run % last != 0)) {
      char message[192];
      const double start_s =
          gossip::kJoinInterval.to_seconds() * static_cast<double>(last);
      std::snprintf(message, sizeof message,
                    "gossip member %llu starts at %.6gs (%llu x the %.6gs "
                    "join interval), not before run_for %.6gs ends: run_for "
                    "must exceed %.6gs",
                    static_cast<unsigned long long>(last), start_s,
                    static_cast<unsigned long long>(last),
                    gossip::kJoinInterval.to_seconds(),
                    spec.engine.run_for.to_seconds(), start_s);
      return message;
    }
    return "";
  }

  std::size_t vnodes(const ScenarioSpec& spec) const override {
    return spec.gossip.nodes;
  }
  bool supports_faults() const override { return true; }
  // The default victims spare the introducer (node 0): with it down,
  // rejoining members could not re-enter and every detection after the
  // outage would measure the join path instead of the gossip path.
  NodeRange churn_victims(const ScenarioSpec& spec) const override {
    return {1, spec.gossip.nodes - 1};
  }

  std::unique_ptr<Workload> create(const ScenarioSpec& spec) const override {
    return std::make_unique<GossipWorkload>(spec);
  }
};

}  // namespace

void register_gossip_workload(WorkloadRegistry& registry) {
  registry.add(std::make_unique<GossipPlugin>());
}

}  // namespace p2plab::scenario
