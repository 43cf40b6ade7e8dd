// Workload plugins: the registry keyed by the `.scn` `[workload] type`
// name that supplies everything the scenario layer needs to parse, size,
// validate and run one workload.
//
// Each plugin owns (a) its parameter surface — the [workload] and
// [outputs] keys it consumes, read through the shared ParamReader so
// `--set workload.*` overrides and the golden "line N: ..." error shapes
// behave identically for every workload — and (b) a factory for the
// Workload object the ExperimentRunner drives. The runner carries zero
// workload-specific branches: adding a protocol (Chord, a relay service)
// is one plugin .cpp plus one registration line, and never touches
// runner.cpp again.
//
// Registration is explicit: the registry constructor calls one named
// register_*_workload() function per built-in. Self-registration from
// global constructors in a static library is linker-droppable; an explicit
// list cannot silently lose a plugin.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "common/units.hpp"

namespace p2plab::scenario {

struct ScenarioSpec;
class ExperimentRunner;

/// One `key value` line of a [workload]/[engine]/[outputs] section (or a
/// `--set section.key=value` override), with the source string the golden
/// error messages blame.
struct KvEntry {
  std::string key;
  std::string value;
  std::string source;  // "line 12" or "--set workload.clients=8"
  bool consumed = false;
};

struct KvSection {
  const char* name = "";
  std::vector<KvEntry> entries;

  KvEntry* find(std::string_view key) {
    for (KvEntry& entry : entries) {
      if (entry.key == key) return &entry;
    }
    return nullptr;
  }
  KvEntry* take(std::string_view key) {
    KvEntry* entry = find(key);
    if (entry != nullptr) entry->consumed = true;
    return entry;
  }
  const KvEntry* first_unconsumed() const {
    for (const KvEntry& entry : entries) {
      if (!entry.consumed) return &entry;
    }
    return nullptr;
  }
};

// Shared value parsers (also used by the scenario parser's non-kv
// directives). All return nullopt on malformed input.
std::optional<std::uint64_t> parse_u64(std::string_view text);
std::optional<double> parse_probability(std::string_view text);
std::optional<bool> parse_bool(std::string_view text);

/// Typed readers over one KvSection. Every error names the source (file
/// line or --set flag) exactly like the parser always has; a false return
/// means `error()` is set and parsing must stop.
class ParamReader {
 public:
  ParamReader(KvSection& section, std::string& error)
      : section_(section), error_(error) {}

  using CountSetter = std::function<void(std::uint64_t, const KvEntry&)>;
  using SizeSetter = std::function<void(DataSize)>;
  using DurationSetter = std::function<void(Duration, const KvEntry&)>;
  using BoolSetter = std::function<void(bool)>;

  bool take_count(const char* key, const CountSetter& setter);
  bool take_size(const char* key, const SizeSetter& setter);
  bool take_duration(const char* key, const DurationSetter& setter);
  bool take_bool(const char* key, const BoolSetter& setter);
  bool take_string(const char* key, std::string* out);
  bool take_probability(const char* key, double* out);

  /// Mark `key` consumed and return its entry (nullptr when absent), for
  /// keys with plugin-specific value grammars.
  KvEntry* take(const char* key) { return section_.take(key); }

  /// Record "<source>: <message>" and return false.
  bool fail(const KvEntry& entry, const std::string& message);
  bool fail_at(const std::string& source, const std::string& message);

  const std::string& error() const { return error_; }
  KvSection& section() { return section_; }

 private:
  KvSection& section_;
  std::string& error_;
};

/// A running workload instance, created per experiment by its plugin.
/// setup() builds the application on the runner's platform (the platform,
/// metrics registry and spec are reachable through the runner); execute()
/// drives the run to its stop condition and writes the workload's outputs,
/// returning the process exit code.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup(ExperimentRunner& runner) = 0;
  virtual int execute(ExperimentRunner& runner) = 0;
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
  /// True when `stop survivors_complete` is meaningful for this workload.
  virtual bool supports_survivors_stop() const { return false; }

  virtual std::unique_ptr<Workload> create(
      const ScenarioSpec& spec) const = 0;
};

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
