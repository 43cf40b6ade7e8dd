// The `ping_sweep` workload plugin: RTT vs. installed firewall rules
// (the paper's Fig 6 microbenchmark). Between ping rounds the sweep pads
// node 0's host firewall; Platform::ping probes from vnode 0 to vnode 1.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "metrics/stats.hpp"
#include "metrics/trace.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "scenario/workload.hpp"

namespace p2plab::scenario {

namespace {

class PingWorkload final : public Workload {
 public:
  explicit PingWorkload(const ScenarioSpec& spec) : spec_(spec) {}

  int execute(ExperimentRunner& runner) override {
    core::Platform& platform = runner.platform();
    const OutputsSection& out = spec_.outputs;
    std::unique_ptr<metrics::CsvWriter> csv;
    if (!out.csv.empty()) {
      csv = std::make_unique<metrics::CsvWriter>(
          out.csv, std::vector<std::string>{"rules", "rtt_avg_ms",
                                            "rtt_min_ms", "rtt_max_ms"});
      csv->comment("seed=" + std::to_string(spec_.engine.seed));
    }

    std::uint32_t installed = 0;
    std::uint32_t next_rule_number = 1000;
    for (std::uint32_t rules = 0; rules <= spec_.ping.rules_max;
         rules += spec_.ping.rules_step) {
      if (rules > installed) {
        platform.host_of_vnode(0).firewall().add_filler_rules(
            next_rule_number, rules - installed);
        next_rule_number += rules - installed;
        installed = rules;
      }
      metrics::Summary rtt;
      for (std::size_t probe = 0; probe < spec_.ping.probes; ++probe) {
        if (const auto d = platform.ping(0, 1)) rtt.add(d->to_millis());
      }
      if (csv) {
        csv->row({std::to_string(rules), std::to_string(rtt.mean()),
                  std::to_string(rtt.min()), std::to_string(rtt.max())});
      }
    }
    if (csv && !out.csv_note.empty()) csv->comment(out.csv_note);
    runner.stop_clock();
    runner.write_bench_json("rules_max",
                            static_cast<double>(spec_.ping.rules_max));
    return 0;
  }

 private:
  const ScenarioSpec& spec_;
};

class PingSweepPlugin final : public WorkloadPlugin {
 public:
  const char* name() const override { return "ping_sweep"; }
  const char* description() const override {
    return "RTT vs. firewall rule count sweep (Fig 6)";
  }

  std::vector<const char*> workload_keys() const override {
    return {"nodes", "rules_max", "rules_step", "probes"};
  }
  std::vector<const char*> output_keys() const override {
    return {"csv", "csv_note"};
  }

  bool parse_workload(ParamReader& reader,
                      ScenarioSpec& spec) const override {
    PingSweepParams& ping = spec.ping;
    // Rule counts are 32-bit (Firewall::add_filler_rules): take_count
    // refuses a larger value instead of sweeping its truncation.
    return reader.take_count("nodes", &ping.nodes) &&
           reader.require("nodes", ping.nodes >= 2,
                          "ping_sweep needs nodes >= 2") &&
           reader.take_count("rules_max", &ping.rules_max) &&
           reader.take_count("rules_step", &ping.rules_step) &&
           reader.require("rules_step", ping.rules_step > 0,
                          "rules_step must be positive") &&
           reader.take_count("probes", &ping.probes);
  }

  bool parse_outputs(ParamReader& reader, ScenarioSpec& spec) const override {
    bool ok = reader.take_string("csv", &spec.outputs.csv);
    ok = ok && reader.take_string("csv_note", &spec.outputs.csv_note);
    return ok;
  }

  std::size_t vnodes(const ScenarioSpec& spec) const override {
    return spec.ping.nodes;
  }

  std::unique_ptr<Workload> create(const ScenarioSpec& spec) const override {
    return std::make_unique<PingWorkload>(spec);
  }
};

}  // namespace

void register_ping_sweep_workload(WorkloadRegistry& registry) {
  registry.add(std::make_unique<PingSweepPlugin>());
}

}  // namespace p2plab::scenario
