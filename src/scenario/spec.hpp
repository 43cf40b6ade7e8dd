// The unified experiment description.
//
// A ScenarioSpec is everything one experiment needs, in one value: the
// emulated topology, the studied workload, the fault schedule, how the
// engine runs it and which result files it writes. Every shipped
// experiment's spec is its `scenarios/*.scn` file, parsed by the scenario
// DSL (parser.hpp) in `p2plab_run` and the fig9 fold sweep; tests build
// small specs in plain C++. The ExperimentRunner (runner.hpp) executes
// them. LiteLab (arXiv:1311.7422) and Becker et al. (arXiv:2208.05862)
// motivate the shape: a large-scale network experiment should be cheap to
// vary and fully captured in one artifact.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bittorrent/swarm.hpp"
#include "common/time.hpp"
#include "fault/plan.hpp"
#include "gossip/protocol.hpp"
#include "sockets/socket.hpp"
#include "topology/topology.hpp"

namespace p2plab::scenario {

/// Where the experiment's topology comes from.
enum class TopologySource {
  kAuto,    // homogeneous DSL zone sized to the workload (the default)
  kInline,  // topology DSL directives, inline or `include`d from a file
};

struct TopologySection {
  TopologySource source = TopologySource::kAuto;
  /// kAuto: the access-link class of every node (paper DSL by default).
  topology::LinkClass auto_link = topology::dsl_2m();
  /// kInline: the parsed topology. Must fit the workload's node count.
  std::optional<topology::Topology> built;
};

/// Parameters of the validate workload: the self-validating accuracy
/// harness (DESIGN.md §13). It derives its expectations from the configured
/// topology — bottleneck bandwidths, path latencies — runs single-flow and
/// N-flow transfers plus datagram probes over the real socket/pipe stack,
/// and fails the run (nonzero exit, per-invariant diagnostics, ACCURACY
/// json) when the emulator's measurements leave the tolerance bands.
struct ValidateParams {
  /// Virtual nodes the harness occupies; an inline topology must provide
  /// at least this many. Node roles are positional: fairness sources are
  /// the first `flows` nodes of zone 0, the fairness sink is the first
  /// node of zone 1 (last node of zone 0 when only one zone exists), and
  /// the Gilbert-Elliott probe target is the last node overall.
  std::size_t nodes = 8;
  /// Competing flows of the Jain-fairness phase.
  std::size_t flows = 4;
  /// Application bytes per stream transfer.
  DataSize transfer = DataSize::mib(2);
  /// Application message size of the stream transfers.
  DataSize message = DataSize::kib(16);
  /// Datagrams of the Gilbert-Elliott loss phase.
  std::size_t loss_datagrams = 20000;
  /// Gilbert-Elliott parameters injected on the probe target's access
  /// link for the loss phase (fault-overlay path, like `burst` faults).
  double ge_p_good_bad = 0.02;
  double ge_p_bad_good = 0.25;
  double ge_loss_bad = 0.9;
  // Tolerances (relative error bands; jain_min is an absolute floor).
  double goodput_tolerance = 0.12;
  double rtt_tolerance = 0.10;
  double loss_tolerance = 0.25;
  double jain_min = 0.95;
  /// Control knob for CI's deliberately mis-configured case: when set,
  /// goodput expectations use this bandwidth instead of the topology's
  /// bottleneck — a mismatch must fail loudly.
  Bandwidth expect_bandwidth = Bandwidth::unlimited();
};

/// Parameters of the ping_sweep workload: two (or more) nodes, rules padded
/// onto node 0's firewall in `rules_step` increments up to `rules_max`,
/// `probes` pings per step.
struct PingSweepParams {
  std::size_t nodes = 2;
  std::uint32_t rules_max = 50000;
  std::uint32_t rules_step = 5000;
  std::size_t probes = 10;
};

/// A `churn` directive: expanded into concrete FaultSpecs by the runner
/// (ExperimentRunner::arm_faults), which owns the platform RNG the schedule
/// is forked from. Unset first/last default to the plugin's
/// churn_victims(); churn_range() resolves them.
struct ChurnDirective {
  bool enabled = false;
  double fraction = 0.3;
  Duration window_start = Duration::zero();
  Duration window_end = Duration::zero();
  double rejoin_fraction = 0.5;
  Duration rejoin_min = Duration::sec(30);
  Duration rejoin_max = Duration::sec(120);
  double leave_fraction = 0.0;
  std::optional<std::size_t> first_node;
  std::optional<std::size_t> last_node;
  /// Stream id forked off the platform RNG; same spec + seed => same plan.
  std::uint64_t rng_stream = 0xfa017;
};

struct FaultsSection {
  /// Explicit faults (inline directives or an `include`d .fault file).
  fault::FaultPlan plan;
  ChurnDirective churn;
  bool empty() const { return plan.empty() && !churn.enabled; }
};

/// When the run stops (before the workload's max_duration safety net).
enum class StopMode {
  kAllComplete,        // every client finished (Swarm::run semantics)
  kSurvivorsComplete,  // every never-faulted or rejoined client finished
  kTime,               // a fixed simulated duration (`run_for`)
};

struct EngineSection {
  /// Parallel-engine shard count (>= 1).
  std::size_t shards = 1;
  /// Stream-transport congestion regime (`transport tcp|flow`, DESIGN.md
  /// §13); handed to PlatformConfig::stream as is.
  sockets::TransportModel transport = sockets::TransportModel::kFlow;
  /// Physical cluster size; unset = one physical node per virtual node.
  std::optional<std::size_t> physical_nodes;
  /// Alternative: fold K virtual nodes per physical node (ceil division).
  /// Mutually exclusive with physical_nodes.
  std::optional<std::size_t> fold;
  std::uint64_t seed = 1;
  StopMode stop = StopMode::kAllComplete;
  Duration run_for = Duration::zero();  // kTime only
  /// Churn-style robustness checks: survivors complete, faults pair with
  /// recoveries, the event queue drains once the applications stop.
  /// Failures make the run's exit code nonzero.
  bool check_invariants = false;
  /// Flight-recorder ring tracing (implied by outputs.trace_file).
  bool trace = false;
  /// Wall-clock BSP profiler (implied by outputs.profile_trace). Virtual
  /// time and event order are bit-identical with profiling on or off.
  bool profile = false;
  /// Pin shard workers to cores; unset = automatic (pin when the process
  /// affinity mask holds at least `shards` online cores).
  std::optional<bool> pin_workers;
};

struct OutputsSection {
  /// Sampling grid of the time-series outputs.
  Duration grid = Duration::sec(10);
  // Swarm outputs (each empty string = not written).
  std::string progress_envelope;  // min/quartile/max percent-done columns
  std::string completions;        // per-client completion times
  std::string completions_note;   // trailing '#' comment on completions
  std::string sampled_progress;   // every sampled_every-th client's curve
  std::size_t sampled_every = 50;
  std::string completion_curve;   // (t, clients complete) steps
  std::string completion_curve_note;
  std::string summary;            // one-row churn/robustness summary
  // Ping-sweep output.
  std::string csv;
  std::string csv_note;
  // Validate output: the per-invariant accuracy verdict (name + ".json").
  std::string accuracy_json;
  // Gossip outputs: per-victim crash → first-confirm latencies, and the
  // one-row false-positive summary under burst loss.
  std::string detection_csv;
  std::string fp_summary;
  // Cross-workload outputs.
  std::string bench_json;     // standardized BENCH_*.json run summary
  std::string profile_trace;  // Perfetto timeline (full filename)
  std::string metrics;        // health-monitor timeline (name + ".csv")
  std::string trace_file;     // flight-recorder JSONL flush (full filename)
};

struct ScenarioSpec {
  std::string name;
  TopologySection topology;
  /// The `[workload] type` name; resolved through the WorkloadRegistry
  /// (workload.hpp), which is the single source of truth for valid names.
  std::string workload = "swarm";
  bt::SwarmConfig swarm;
  PingSweepParams ping;
  ValidateParams validate;
  gossip::Config gossip;
  FaultsSection faults;
  EngineSection engine;
  OutputsSection outputs;

  /// Virtual nodes the workload occupies (registry-dispatched).
  std::size_t vnodes() const;

  /// Physical cluster size after resolving auto/fold.
  std::size_t resolved_physical_nodes() const {
    if (engine.physical_nodes) return *engine.physical_nodes;
    if (engine.fold && *engine.fold > 0) {
      return (vnodes() + *engine.fold - 1) / *engine.fold;
    }
    return vnodes();
  }

  /// Perfetto timeline file name: outputs.profile_trace when named,
  /// "profile.json" when profiling is merely switched on, "" when off.
  std::string resolved_profile_trace() const;

  /// File names (with extensions) this run writes into
  /// $P2PLAB_RESULTS_DIR — what the CI smoke matrix checks for.
  std::vector<std::string> declared_outputs() const;
};

}  // namespace p2plab::scenario
