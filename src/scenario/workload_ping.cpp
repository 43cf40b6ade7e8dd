// The `ping_sweep` workload plugin: RTT vs. installed firewall rules
// (the paper's Fig 6 microbenchmark). Between ping rounds the sweep pads
// node 0's host firewall; Platform::ping probes from vnode 0 to vnode 1.
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "metrics/health.hpp"
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

  void setup(ExperimentRunner& runner) override {
    runner.platform().bind_metrics(runner.registry());
  }

  int execute(ExperimentRunner& runner) override {
    core::Platform& platform = runner.platform();
    const auto wall_start = std::chrono::steady_clock::now();
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
    runner.set_end_of_run(platform.now());
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    runner.write_bench_json(wall_seconds, "rules_max",
                            static_cast<double>(spec_.ping.rules_max));
    runner.write_profile_outputs();
    if (out.report) metrics::print_registry_report(runner.registry());
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
    bool nodes_ok = true;
    const KvEntry* nodes_entry = nullptr;
    bool ok = reader.take_count("nodes",
                                [&](std::uint64_t v, const KvEntry& entry) {
                                  spec.ping.nodes =
                                      static_cast<std::size_t>(v);
                                  nodes_entry = &entry;
                                  nodes_ok = v >= 2;
                                });
    if (ok && !nodes_ok) {
      return reader.fail(*nodes_entry, "ping_sweep needs nodes >= 2");
    }
    // Rule counts are 32-bit (Firewall::add_filler_rules): refuse a larger
    // value instead of sweeping its truncation.
    auto take_rules = [&](const char* key, std::uint32_t* target,
                          bool positive) {
      const KvEntry* seen = nullptr;
      std::uint64_t value = 0;
      if (!reader.take_count(key, [&](std::uint64_t v, const KvEntry& entry) {
            value = v;
            seen = &entry;
          })) {
        return false;
      }
      if (seen == nullptr) return true;
      if (value > std::numeric_limits<std::uint32_t>::max()) {
        return reader.fail(*seen,
                           std::string(key) + " must be at most 4294967295");
      }
      if (positive && value == 0) {
        return reader.fail(*seen, std::string(key) + " must be positive");
      }
      *target = static_cast<std::uint32_t>(value);
      return true;
    };
    ok = ok && take_rules("rules_max", &spec.ping.rules_max, false);
    ok = ok && take_rules("rules_step", &spec.ping.rules_step, true);
    ok = ok && reader.take_count("probes",
                                 [&](std::uint64_t v, const KvEntry&) {
                                   spec.ping.probes =
                                       static_cast<std::size_t>(v);
                                 });
    return ok;
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
