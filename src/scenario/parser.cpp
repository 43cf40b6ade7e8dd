#include "scenario/parser.hpp"

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/text.hpp"
#include "scenario/workload.hpp"
#include "topology/parser.hpp"

namespace p2plab::scenario {

namespace {

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string resolve_path(const std::string& base_dir,
                         const std::string& path) {
  if (base_dir.empty() || (!path.empty() && path[0] == '/')) return path;
  return base_dir + "/" + path;
}

/// An `include <path>` directive.
struct Include {
  int line = 0;
  std::string path;
};

/// Everything the first pass routes out of the lexed file.
struct Collected {
  std::string name;

  std::optional<text::TokenLine> topo_auto;
  std::optional<Include> topo_include;
  std::vector<text::TokenLine> topo_inline;

  std::optional<Include> faults_include;
  std::vector<text::TokenLine> faults_inline;
  std::optional<text::TokenLine> churn;

  KvSection workload{"[workload]"};
  KvSection engine{"[engine]"};
  KvSection outputs{"[outputs]"};
};

/// The cross-type stray-key diagnostic: true when some *other* plugin
/// claims `key` in the given section, so "key 'X' is not valid for
/// workload type Y" beats a bare "unknown key". The registry is the
/// single source of truth for every plugin's key surface.
bool claimed_by_other_plugin(const WorkloadRegistry& registry,
                             const WorkloadPlugin* plugin,
                             std::string_view key, bool outputs) {
  for (const WorkloadPlugin* other : registry.plugins()) {
    if (other == plugin) continue;
    for (const char* candidate :
         outputs ? other->output_keys() : other->workload_keys()) {
      if (key == candidate) return true;
    }
  }
  return false;
}

}  // namespace

const std::string& engine_keys() {
  static const std::string keys =
      "shards|transport|physical_nodes|fold|seed|stop|run_for|"
      "check_invariants|trace|profile|pin";
  return keys;
}

ParseResult parse_scenario(std::string_view source,
                           const ParseOptions& options) {
  Collected c;
  ParseResult result;
  auto fail = [&](const std::string& where, const std::string& message) {
    result.spec.reset();
    result.error = where + ": " + message;
    return result;
  };
  auto fail_line = [&](int line, const std::string& message) {
    return fail(text::line_source(line), message);
  };
  std::string error;
  auto fail_with_error = [&] {
    result.spec.reset();
    result.error = error;
    return result;
  };

  // -- pass 1: route every lexed line to its section ----------------------
  const text::Lexed lexed = text::lex(source);
  if (!lexed.error.empty()) {
    error = lexed.error;
    return fail_with_error();
  }
  enum class Section { kNone, kTopology, kWorkload, kFaults, kEngine,
                       kOutputs };
  Section section = Section::kNone;
  bool seen[5] = {false, false, false, false, false};
  for (const text::TokenLine& line : lexed.lines) {
    const int n = line.number;
    const auto& tokens = line.tokens;
    const std::string& head = tokens[0];

    if (head.size() >= 2 && head.front() == '[' && head.back() == ']') {
      if (tokens.size() != 1) {
        return fail_line(n, "unexpected tokens after " + head);
      }
      const std::string name = head.substr(1, head.size() - 2);
      if (c.name.empty()) {
        return fail_line(n, "expected 'scenario <name>' before any section");
      }
      static constexpr std::pair<const char*, Section> kSections[] = {
          {"topology", Section::kTopology}, {"workload", Section::kWorkload},
          {"faults", Section::kFaults},     {"engine", Section::kEngine},
          {"outputs", Section::kOutputs}};
      std::size_t index = 0;
      while (index < 5 && name != kSections[index].first) ++index;
      if (index == 5) return fail_line(n, "unknown section [" + name + "]");
      if (seen[index]) {
        return fail_line(n, "duplicate section [" + name + "]");
      }
      seen[index] = true;
      section = kSections[index].second;
      continue;
    }

    // `include <path>`, at most once per section; returns the error.
    auto include = [&](std::optional<Include>& slot,
                       const char* where) -> std::string {
      if (tokens.size() != 2) return "include <path>";
      if (slot) return std::string("duplicate 'include' in ") + where;
      slot = Include{n, tokens[1]};
      return "";
    };
    switch (section) {
      case Section::kNone: {
        if (head == "scenario") {
          if (!c.name.empty()) {
            return fail_line(n, "duplicate 'scenario' directive");
          }
          if (tokens.size() != 2 || tokens[1].empty()) {
            return fail_line(n, "scenario <name>");
          }
          c.name = tokens[1];
          continue;
        }
        return fail_line(n, c.name.empty()
                                ? "expected 'scenario <name>' before any "
                                  "section"
                                : "directive '" + head + "' outside a section");
      }
      case Section::kTopology: {
        if (head == "auto") {
          if (c.topo_auto) {
            return fail_line(n, "duplicate 'auto' directive in [topology]");
          }
          c.topo_auto = line;
        } else if (head == "include") {
          const std::string message = include(c.topo_include, "[topology]");
          if (!message.empty()) return fail_line(n, message);
        } else {
          c.topo_inline.push_back(line);
        }
        continue;
      }
      case Section::kFaults: {
        if (head == "churn") {
          if (c.churn) {
            return fail_line(n, "duplicate 'churn' directive in [faults]");
          }
          c.churn = line;
        } else if (head == "include") {
          const std::string message = include(c.faults_include, "[faults]");
          if (!message.empty()) return fail_line(n, message);
        } else {
          c.faults_inline.push_back(line);
        }
        continue;
      }
      case Section::kWorkload:
      case Section::kEngine:
      case Section::kOutputs: {
        KvSection& kv = section == Section::kWorkload ? c.workload
                        : section == Section::kEngine ? c.engine
                                                      : c.outputs;
        if (tokens.size() != 2) {
          return fail_line(n, "expected '<key> <value>' in " +
                                  std::string(kv.name()));
        }
        if (!kv.add(head, tokens[1], text::line_source(n), &error)) {
          return fail_with_error();
        }
        continue;
      }
    }
  }
  if (c.name.empty()) {
    return fail_line(0, "missing 'scenario <name>' directive");
  }

  // -- pass 2: apply --set overrides ---------------------------------------
  for (const std::string& override_arg : options.overrides) {
    const std::string where = "--set " + override_arg;
    const auto eq = override_arg.find('=');
    const auto dot = override_arg.find('.');
    if (eq == std::string::npos || dot == std::string::npos || dot > eq ||
        dot == 0 || dot + 1 == eq) {
      return fail(where, "expected section.key=value");
    }
    const std::string sect = override_arg.substr(0, dot);
    KvSection* kv = sect == "workload" ? &c.workload
                    : sect == "engine" ? &c.engine
                    : sect == "outputs" ? &c.outputs
                                        : nullptr;
    if (sect == "topology" || sect == "faults") {
      return fail(where, "section [" + sect +
                             "] has no key=value entries to override");
    }
    if (kv == nullptr) return fail(where, "unknown section '" + sect + "'");
    kv->set(std::string_view(override_arg).substr(dot + 1, eq - dot - 1),
            std::string_view(override_arg).substr(eq + 1), where);
  }

  // -- pass 3: interpret ---------------------------------------------------
  ScenarioSpec spec;
  spec.name = c.name;
  const WorkloadRegistry& registry = WorkloadRegistry::instance();

  // [workload] — the type name picks the plugin; the plugin consumes its
  // own keys through the shared typed readers, so every workload gets
  // identical error shapes and --set override behavior.
  const WorkloadPlugin* plugin = registry.find("swarm");
  if (KvEntry* entry = c.workload.take("type")) {
    plugin = registry.find(entry->value);
    if (plugin == nullptr) {
      return fail(entry->source, "unknown workload type '" + entry->value +
                                     "' (expected " +
                                     registry.joined_names("|") + ")");
    }
  }
  spec.workload = plugin->name();
  // A stray key another plugin claims gets "not valid for workload type
  // Y", which beats a bare "unknown key".
  auto reject_strays = [&](ParamReader& reader, bool outputs) {
    const KvEntry* stray = reader.section().first_unconsumed();
    if (stray != nullptr &&
        claimed_by_other_plugin(registry, plugin, stray->key, outputs)) {
      return reader.fail(*stray, "key '" + stray->key +
                                     "' is not valid for workload type " +
                                     plugin->name());
    }
    return reader.finish();
  };
  ParamReader workload_params(c.workload, error);
  if (!plugin->parse_workload(workload_params, spec) ||
      !reject_strays(workload_params, /*outputs=*/false)) {
    return fail_with_error();
  }

  // [engine]
  EngineSection& engine = spec.engine;
  ParamReader engine_params(c.engine, error);
  if (!engine_params.take_count("shards", &engine.shards) ||
      !engine_params.require("shards", engine.shards > 0,
                             "shards must be positive")) {
    return fail_with_error();
  }
  if (const KvEntry* entry = c.engine.take("transport")) {
    if (entry->value == "flow") {
      engine.transport = sockets::TransportModel::kFlow;
    } else if (entry->value == "tcp") {
      engine.transport = sockets::TransportModel::kTcp;
    } else {
      return fail(entry->source,
                  "unknown transport '" + entry->value + "' (tcp|flow)");
    }
  }
  if (const KvEntry* entry = c.engine.take("physical_nodes");
      entry != nullptr && entry->value != "auto") {
    const auto value = text::parse_count(entry->value);
    if (!value || *value == 0) {
      return fail(entry->source,
                  "bad count '" + entry->value +
                      "' for physical_nodes (a positive number, or auto)");
    }
    engine.physical_nodes = *value;
  }
  std::size_t fold = 0;
  if (!engine_params.take_count("fold", &fold) ||
      !engine_params.require("fold", fold > 0, "fold must be positive") ||
      !engine_params.require("fold", !engine.physical_nodes,
                             "fold and physical_nodes are mutually "
                             "exclusive")) {
    return fail_with_error();
  }
  if (engine_params.has("fold")) engine.fold = fold;
  if (!engine_params.take_count("seed", &engine.seed)) {
    return fail_with_error();
  }
  const KvEntry* stop_entry = c.engine.take("stop");
  if (stop_entry != nullptr) {
    if (stop_entry->value == "all_complete") {
      engine.stop = StopMode::kAllComplete;
    } else if (stop_entry->value == "survivors_complete") {
      engine.stop = StopMode::kSurvivorsComplete;
    } else if (stop_entry->value == "time") {
      engine.stop = StopMode::kTime;
    } else {
      return fail(stop_entry->source,
                  "unknown stop mode '" + stop_entry->value +
                      "' (all_complete|survivors_complete|time)");
    }
  }
  // Whole-run checks blame the stop line, or the file as a whole.
  const std::string stop_source =
      stop_entry != nullptr ? stop_entry->source : text::line_source(0);
  bool pin = false;
  if (!engine_params.take_duration("run_for", &engine.run_for) ||
      !engine_params.take_bool("check_invariants",
                               &engine.check_invariants) ||
      !engine_params.take_bool("trace", &engine.trace) ||
      !engine_params.take_bool("profile", &engine.profile) ||
      !engine_params.take_bool("pin", &pin)) {
    return fail_with_error();
  }
  if (engine_params.has("pin")) engine.pin_workers = pin;
  if (engine.stop == StopMode::kTime && engine.run_for <= Duration::zero()) {
    return fail(stop_source, "stop=time requires run_for");
  }
  if (!engine_params.require("run_for", engine.stop == StopMode::kTime,
                             "run_for requires stop=time") ||
      !engine_params.finish(" (expected " + engine_keys() + ")")) {
    return fail_with_error();
  }

  // [outputs] — the plugin consumes its own keys, then the cross-workload
  // ones.
  OutputsSection& outputs = spec.outputs;
  ParamReader output_params(c.outputs, error);
  if (!plugin->parse_outputs(output_params, spec) ||
      !output_params.take_string("bench_json", &outputs.bench_json) ||
      !output_params.take_string("profile_trace", &outputs.profile_trace) ||
      !output_params.take_string("metrics", &outputs.metrics) ||
      !output_params.take_string("trace", &outputs.trace_file) ||
      !reject_strays(output_params, /*outputs=*/true)) {
    return fail_with_error();
  }
  if (!outputs.trace_file.empty()) engine.trace = true;
  // Naming a profile output turns profiling on, mirroring trace.
  if (!outputs.profile_trace.empty()) engine.profile = true;

  // [topology]
  if (c.topo_auto && (c.topo_include || !c.topo_inline.empty())) {
    return fail_line(c.topo_auto->number,
                     "[topology] cannot mix 'auto' with other topology "
                     "sources");
  }
  if (c.topo_include && !c.topo_inline.empty()) {
    return fail_line(c.topo_include->line,
                     "[topology] cannot mix 'include' with inline "
                     "directives");
  }
  if (c.topo_auto) {
    // Link attributes follow the topology format: bare latencies are ms.
    spec.topology.source = TopologySource::kAuto;
    topology::LinkClass& link = spec.topology.auto_link;
    KvSection attributes("auto");
    ParamReader reader(attributes, error, text::BareUnit::kMillis);
    if (!attributes.add_attributes(c.topo_auto->tokens.subspan(1),
                                   text::line_source(c.topo_auto->number),
                                   &error) ||
        !reader.take_bandwidth("down", &link.down) ||
        !reader.take_bandwidth("up", &link.up) ||
        !reader.take_duration("latency", &link.latency) ||
        !reader.take_probability("loss", &link.loss_rate) ||
        !reader.finish()) {
      return fail_with_error();
    }
  } else if (c.topo_include || !c.topo_inline.empty()) {
    topology::ParseResult sub;
    if (c.topo_include) {
      const Include& inc = *c.topo_include;
      const auto contents = read_file(resolve_path(options.base_dir, inc.path));
      if (!contents) {
        return fail_line(inc.line,
                         "include '" + inc.path + "': cannot read file");
      }
      sub = topology::parse_topology(*contents);
      if (!sub.topology) {
        return fail_line(inc.line, "include '" + inc.path + "': " + sub.error);
      }
    } else {
      sub = topology::parse_topology(c.topo_inline);
      if (!sub.topology) {
        error = sub.error;  // already "line N: ..." in this file's numbering
        return fail_with_error();
      }
    }
    spec.topology.source = TopologySource::kInline;
    spec.topology.built = std::move(*sub.topology);
  }
  const std::size_t vnodes = spec.vnodes();
  if (spec.topology.built && spec.topology.built->total_nodes() < vnodes) {
    return fail_line(0, "topology has " +
                            std::to_string(spec.topology.built->total_nodes()) +
                            " nodes but the workload needs " +
                            std::to_string(vnodes));
  }

  // [faults] — node indexes must name one of the workload's vnodes.
  const std::size_t max_node = vnodes - 1;
  if (c.faults_include && !c.faults_inline.empty()) {
    return fail_line(c.faults_include->line,
                     "[faults] cannot mix 'include' with inline directives");
  }
  const int faults_line = c.faults_include ? c.faults_include->line
                          : c.churn        ? c.churn->number
                          : !c.faults_inline.empty()
                              ? c.faults_inline.front().number
                              : 0;
  if (faults_line != 0 && !plugin->supports_faults()) {
    return fail_line(faults_line, "[faults] requires workload type " +
                                      registry.fault_capable_names());
  }
  if (c.faults_include) {
    const Include& inc = *c.faults_include;
    const auto contents = read_file(resolve_path(options.base_dir, inc.path));
    if (!contents) {
      return fail_line(inc.line,
                       "include '" + inc.path + "': cannot read file");
    }
    auto sub = fault::FaultPlan::parse(*contents, max_node);
    if (!sub.plan) {
      return fail_line(inc.line, "include '" + inc.path + "': " + sub.error);
    }
    spec.faults.plan = std::move(*sub.plan);
  } else if (!c.faults_inline.empty()) {
    auto sub = fault::FaultPlan::parse(c.faults_inline, max_node);
    if (!sub.plan) {
      error = sub.error;  // already "line N: ..." in this file's numbering
      return fail_with_error();
    }
    spec.faults.plan = std::move(*sub.plan);
  }
  if (c.churn) {
    const int n = c.churn->number;
    ChurnDirective& churn = spec.faults.churn;
    churn.enabled = true;
    KvSection attributes("churn");
    ParamReader reader(attributes, error);
    if (!attributes.add_attributes(c.churn->tokens.subspan(1),
                                   text::line_source(n), &error)) {
      return fail_with_error();
    }
    if (!reader.has("window")) {
      return fail_line(n, "churn needs window=START..END");
    }
    std::size_t first = 0;
    std::size_t last = 0;
    if (!reader.take_probability("fraction", &churn.fraction) ||
        !reader.take_probability("rejoin", &churn.rejoin_fraction) ||
        !reader.take_duration("rejoin_min", &churn.rejoin_min) ||
        !reader.take_duration("rejoin_max", &churn.rejoin_max) ||
        !reader.take_probability("leave", &churn.leave_fraction) ||
        !reader.take_count("first", &first, max_node) ||
        !reader.take_count("last", &last, max_node) ||
        !reader.take_count("seed", &churn.rng_stream)) {
      return fail_with_error();
    }
    if (reader.has("first")) churn.first_node = first;
    if (reader.has("last")) churn.last_node = last;
    // A bound left out comes from the workload's default victims, so the
    // one given must still sit on the right side of it.
    const NodeRange victims = churn_range(spec);
    if (victims.first > victims.last) {
      return fail_line(n, "churn needs first <= last");
    }
    if (churn.rejoin_min > churn.rejoin_max) {
      return fail_line(n, "churn needs rejoin_min <= rejoin_max");
    }
    const KvEntry* window = reader.take("window");
    const std::string_view range(window->value);
    const auto dots = range.find("..");
    if (dots == std::string_view::npos) {
      return fail_line(n, "churn window=START..END");
    }
    const auto start =
        text::parse_duration(range.substr(0, dots), text::BareUnit::kSeconds);
    const auto end =
        text::parse_duration(range.substr(dots + 2), text::BareUnit::kSeconds);
    if (!start || !end) {
      return fail_line(n, "bad churn window '" + window->value + "'");
    }
    if (*end < *start) return fail_line(n, "churn window end before start");
    churn.window_start = *start;
    churn.window_end = *end;
    if (!reader.finish()) return fail_with_error();
  }
  if (engine.stop == StopMode::kSurvivorsComplete &&
      !plugin->supports_survivors_stop()) {
    return fail(stop_source, "stop=survivors_complete requires workload type " +
                                 registry.survivors_stop_names());
  }
  // Whole-spec validation owned by the plugin (e.g. gossip requires
  // stop=time), blamed on the [engine] stop source like the stop checks.
  if (std::string message = plugin->validate_spec(spec); !message.empty()) {
    return fail(stop_source, message);
  }

  result.spec = std::move(spec);
  result.error.clear();
  return result;
}

ParseResult parse_scenario_file(const std::string& path,
                                const std::vector<std::string>& overrides) {
  const auto contents = read_file(path);
  if (!contents) {
    ParseResult result;
    result.error = "cannot read file";
    return result;
  }
  ParseOptions options;
  options.overrides = overrides;
  const auto slash = path.find_last_of('/');
  if (slash != std::string::npos) options.base_dir = path.substr(0, slash);
  return parse_scenario(*contents, options);
}

}  // namespace p2plab::scenario
