// Workload plugins: the registry keyed by the `.scn` `[workload] type`
// name that supplies everything the scenario layer needs to parse, size,
// validate and run one workload.
//
// Each plugin owns (a) its parameter surface — the [workload] and
// [outputs] keys it consumes, read through the shared ParamReader so
// `--set workload.*` overrides and the golden "line N: ..." error shapes
// behave identically for every workload — (b) its default churn victims,
// and (c) a factory for the Workload object the ExperimentRunner drives.
// A Workload owns only its own work: build its application, drive it to
// its stop condition, run its own checks and write its own files. Every
// step all experiments share (fault arming, the fault-pairing and drain
// invariants, run timing, the health timeline and the
// BENCH/trace/profile/report tail) is a runner service (runner.hpp). The runner carries zero workload-specific
// branches: adding a protocol (Chord, a relay service) is one plugin .cpp
// plus one registration line, and never touches runner.cpp again.
//
// Registration is explicit: the registry constructor calls one named
// register_*_workload() function per built-in. Self-registration from
// global constructors in a static library is linker-droppable; an explicit
// list cannot silently lose a plugin.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/text.hpp"

namespace p2plab::scenario {

struct ScenarioSpec;
class ExperimentRunner;

// The plugins read their keys through the shared typed readers of the
// experiment-file grammar (common/text.hpp).
using text::KvEntry;
using text::KvSection;
using text::ParamReader;

/// A running workload instance, created per experiment by its plugin and
/// driven by the runner:
///   build()   constructs what the platform's counters must not see being
///             constructed (runs before the runner binds them);
///   setup()   builds the rest of the application, with the counters
///             bound, and calls runner.arm_faults() if it takes faults;
///   execute() drives the run to its stop condition, calls
///             runner.stop_clock(), runs the workload's checks and writes
///             its own files. It returns 1 iff a check of its own (one not
///             made through runner.check()) failed, else 0.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void build(ExperimentRunner& runner) { (void)runner; }
  virtual void setup(ExperimentRunner& runner) { (void)runner; }
  virtual int execute(ExperimentRunner& runner) = 0;
};

/// An inclusive range of vnode indexes.
struct NodeRange {
  std::size_t first = 0;
  std::size_t last = 0;
};

/// Everything the scenario layer asks about one workload type.
class WorkloadPlugin {
 public:
  virtual ~WorkloadPlugin() = default;

  virtual const char* name() const = 0;
  /// One line for `p2plab_run --list-workloads`.
  virtual const char* description() const = 0;

  /// The [workload] / [outputs] keys this plugin consumes — the parser's
  /// cross-type diagnostics ("key 'X' is not valid for workload type Y")
  /// scan the other plugins' lists.
  virtual std::vector<const char*> workload_keys() const = 0;
  virtual std::vector<const char*> output_keys() const { return {}; }

  /// Consume this plugin's keys from the [workload] / [outputs] sections.
  /// A false return means reader.error() is set.
  virtual bool parse_workload(ParamReader& reader,
                              ScenarioSpec& spec) const = 0;
  virtual bool parse_outputs(ParamReader& reader, ScenarioSpec& spec) const {
    (void)reader;
    (void)spec;
    return true;
  }

  /// Cross-section validation once the whole spec is assembled. Returns ""
  /// when the spec is fine; otherwise the message of a parse error the
  /// parser attributes to the [engine] stop source.
  virtual std::string validate_spec(const ScenarioSpec& spec) const {
    (void)spec;
    return "";
  }

  /// Virtual nodes the workload occupies.
  virtual std::size_t vnodes(const ScenarioSpec& spec) const = 0;

  /// True when the workload participates in [faults] / churn schedules.
  virtual bool supports_faults() const { return false; }
  /// The vnodes a `churn` line picks its victims from when it names no
  /// first=/last= (default: every vnode of the workload).
  virtual NodeRange churn_victims(const ScenarioSpec& spec) const {
    return {0, vnodes(spec) - 1};
  }
  /// True when `stop survivors_complete` is meaningful for this workload.
  virtual bool supports_survivors_stop() const { return false; }

  virtual std::unique_ptr<Workload> create(
      const ScenarioSpec& spec) const = 0;
};

/// The victim range of `spec`'s churn line: its first=/last= where given,
/// its plugin's churn_victims() otherwise. The parser checks this range and
/// the runner expands churn over it.
NodeRange churn_range(const ScenarioSpec& spec);

/// The process-wide plugin registry. Lookup is by `.scn` type name;
/// plugins() is sorted by name so every enumeration (CLI listing, error
/// messages) is stable.
class WorkloadRegistry {
 public:
  static const WorkloadRegistry& instance();

  const WorkloadPlugin* find(std::string_view name) const;
  /// find() that asserts; for names already validated by the parser.
  const WorkloadPlugin& require(std::string_view name) const;
  const std::vector<const WorkloadPlugin*>& plugins() const {
    return sorted_;
  }

  /// All names joined by `sep` ("gossip|ping_sweep|swarm|validate").
  std::string joined_names(const char* sep) const;
  /// Names of fault-capable workloads joined by " or ", for the
  /// "[faults] requires workload type ..." diagnostic.
  std::string fault_capable_names() const;
  /// Same for workloads supporting `stop survivors_complete`.
  std::string survivors_stop_names() const;

  /// Used by the register_*_workload() functions only.
  void add(std::unique_ptr<const WorkloadPlugin> plugin);

 private:
  WorkloadRegistry();
  std::vector<std::unique_ptr<const WorkloadPlugin>> owned_;
  std::vector<const WorkloadPlugin*> sorted_;
};

// Built-in plugin registration hooks, one per workload_*.cpp (validate's
// lives in validate.cpp beside its harness). Called by the registry
// constructor; never call them yourself.
void register_swarm_workload(WorkloadRegistry& registry);
void register_ping_sweep_workload(WorkloadRegistry& registry);
void register_validate_workload(WorkloadRegistry& registry);
void register_gossip_workload(WorkloadRegistry& registry);

}  // namespace p2plab::scenario
