#include "scenario/parser.hpp"

#include <charconv>
#include <fstream>
#include <sstream>
#include <vector>

#include "scenario/workload.hpp"
#include "topology/parser.hpp"

namespace p2plab::scenario {

namespace {

/// Whitespace tokenizer with '#' comments and double-quoted tokens (quotes
/// keep spaces and '#'). Returns nullopt on an unterminated quote.
std::optional<std::vector<std::string>> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  std::string token;
  bool in_quotes = false;
  bool quoted = false;  // current token came from quotes (may be empty)
  auto flush = [&] {
    if (!token.empty() || quoted) tokens.push_back(token);
    token.clear();
    quoted = false;
  };
  for (const char c : line) {
    if (in_quotes) {
      if (c == '"') {
        in_quotes = false;
      } else {
        token.push_back(c);
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
      quoted = true;
      continue;
    }
    if (c == '#') break;
    if (c == ' ' || c == '\t' || c == '\r') {
      flush();
    } else {
      token.push_back(c);
    }
  }
  if (in_quotes) return std::nullopt;
  flush();
  return tokens;
}

/// "key=value" -> value for the expected key.
std::optional<std::string_view> value_of(std::string_view token,
                                         std::string_view key) {
  if (token.size() <= key.size() + 1) return std::nullopt;
  if (token.substr(0, key.size()) != key || token[key.size()] != '=') {
    return std::nullopt;
  }
  return token.substr(key.size() + 1);
}

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

struct RawLine {
  int line = 0;
  std::string text;
};

/// Reassemble inline [topology]/[faults] lines at their original line
/// numbers (blank padding in between), so the sub-parser's "line N"
/// messages point into the enclosing .scn file.
std::string padded_text(const std::vector<RawLine>& lines) {
  std::string text;
  int emitted = 0;
  for (const RawLine& raw : lines) {
    while (emitted < raw.line - 1) {
      text += '\n';
      ++emitted;
    }
    text += raw.text;
    text += '\n';
    ++emitted;
  }
  return text;
}

/// Everything collected in the first (lexical) pass. KvEntry/KvSection
/// live in workload.hpp now, shared with the plugins' ParamReaders.
struct Collected {
  std::string name;

  bool topo_section = false;
  std::optional<RawLine> topo_auto;
  std::vector<std::string> topo_auto_tokens;
  std::optional<RawLine> topo_include;  // text = path
  std::vector<RawLine> topo_inline;

  bool faults_section = false;
  std::optional<RawLine> faults_include;  // text = path
  std::vector<RawLine> faults_inline;
  std::optional<RawLine> churn_directive;
  std::vector<std::string> churn_tokens;

  KvSection workload{"workload", {}};
  KvSection engine{"engine", {}};
  KvSection outputs{"outputs", {}};
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

std::optional<DataSize> parse_data_size(std::string_view text) {
  if (text.empty()) return std::nullopt;
  double multiplier = 1.0;
  std::string_view digits = text;
  const char suffix = text.back();
  if (suffix == 'k' || suffix == 'K') {
    multiplier = 1024.0;
    digits.remove_suffix(1);
  } else if (suffix == 'M') {
    multiplier = 1024.0 * 1024.0;
    digits.remove_suffix(1);
  } else if (suffix == 'G') {
    multiplier = 1024.0 * 1024.0 * 1024.0;
    digits.remove_suffix(1);
  }
  if (digits.empty()) return std::nullopt;
  double value = 0;
  const auto [ptr, ec] =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (ec != std::errc{} || ptr != digits.data() + digits.size() ||
      value <= 0) {
    return std::nullopt;
  }
  return DataSize::bytes(static_cast<std::uint64_t>(value * multiplier));
}

ParseResult parse_scenario(std::string_view text,
                           const ParseOptions& options) {
  Collected c;
  ParseResult result;
  auto fail = [&](const std::string& source, const std::string& message) {
    result.spec.reset();
    result.error = source + ": " + message;
    return result;
  };
  auto fail_line = [&](int line, const std::string& message) {
    return fail("line " + std::to_string(line), message);
  };

  // -- pass 1: lexical — route every line to its section -------------------
  enum class Section { kNone, kTopology, kWorkload, kFaults, kEngine,
                       kOutputs };
  Section section = Section::kNone;
  bool seen[5] = {false, false, false, false, false};
  std::istringstream stream{std::string(text)};
  std::string line;
  int line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    const auto tokens = tokenize(line);
    if (!tokens) return fail_line(line_number, "unterminated quote");
    if (tokens->empty()) continue;
    const std::string& head = tokens->front();

    if (head.size() >= 2 && head.front() == '[' && head.back() == ']') {
      if (tokens->size() != 1) {
        return fail_line(line_number, "unexpected tokens after " + head);
      }
      const std::string name = head.substr(1, head.size() - 2);
      if (c.name.empty()) {
        return fail_line(line_number,
                         "expected 'scenario <name>' before any section");
      }
      std::size_t index = 0;
      if (name == "topology") {
        section = Section::kTopology;
        index = 0;
        c.topo_section = true;
      } else if (name == "workload") {
        section = Section::kWorkload;
        index = 1;
      } else if (name == "faults") {
        section = Section::kFaults;
        index = 2;
        c.faults_section = true;
      } else if (name == "engine") {
        section = Section::kEngine;
        index = 3;
      } else if (name == "outputs") {
        section = Section::kOutputs;
        index = 4;
      } else {
        return fail_line(line_number, "unknown section [" + name + "]");
      }
      if (seen[index]) {
        return fail_line(line_number, "duplicate section [" + name + "]");
      }
      seen[index] = true;
      continue;
    }

    switch (section) {
      case Section::kNone: {
        if (head == "scenario") {
          if (!c.name.empty()) {
            return fail_line(line_number, "duplicate 'scenario' directive");
          }
          if (tokens->size() != 2 || (*tokens)[1].empty()) {
            return fail_line(line_number, "scenario <name>");
          }
          c.name = (*tokens)[1];
          continue;
        }
        return fail_line(line_number,
                         c.name.empty()
                             ? "expected 'scenario <name>' before any section"
                             : "directive '" + head + "' outside a section");
      }
      case Section::kTopology: {
        if (head == "auto") {
          if (c.topo_auto) {
            return fail_line(line_number,
                             "duplicate 'auto' directive in [topology]");
          }
          c.topo_auto = RawLine{line_number, line};
          c.topo_auto_tokens = *tokens;
          continue;
        }
        if (head == "include") {
          if (tokens->size() != 2) {
            return fail_line(line_number, "include <path>");
          }
          if (c.topo_include) {
            return fail_line(line_number,
                             "duplicate 'include' in [topology]");
          }
          c.topo_include = RawLine{line_number, (*tokens)[1]};
          continue;
        }
        c.topo_inline.push_back(RawLine{line_number, line});
        continue;
      }
      case Section::kFaults: {
        if (head == "include") {
          if (tokens->size() != 2) {
            return fail_line(line_number, "include <path>");
          }
          if (c.faults_include) {
            return fail_line(line_number, "duplicate 'include' in [faults]");
          }
          c.faults_include = RawLine{line_number, (*tokens)[1]};
          continue;
        }
        if (head == "churn") {
          if (c.churn_directive) {
            return fail_line(line_number,
                             "duplicate 'churn' directive in [faults]");
          }
          c.churn_directive = RawLine{line_number, line};
          c.churn_tokens = *tokens;
          continue;
        }
        c.faults_inline.push_back(RawLine{line_number, line});
        continue;
      }
      case Section::kWorkload:
      case Section::kEngine:
      case Section::kOutputs: {
        KvSection& kv = section == Section::kWorkload ? c.workload
                        : section == Section::kEngine ? c.engine
                                                      : c.outputs;
        if (tokens->size() != 2) {
          return fail_line(line_number, "expected '<key> <value>' in [" +
                                            std::string(kv.name) + "]");
        }
        if (kv.find(head) != nullptr) {
          return fail_line(line_number, "duplicate key '" + head + "' in [" +
                                            std::string(kv.name) + "]");
        }
        kv.entries.push_back(KvEntry{
            head, (*tokens)[1], "line " + std::to_string(line_number)});
        continue;
      }
    }
  }
  if (c.name.empty()) {
    return fail_line(0, "missing 'scenario <name>' directive");
  }

  // -- pass 2: apply --set overrides ---------------------------------------
  for (const std::string& override_arg : options.overrides) {
    const std::string source = "--set " + override_arg;
    const auto eq = override_arg.find('=');
    const auto dot = override_arg.find('.');
    if (eq == std::string::npos || dot == std::string::npos || dot > eq ||
        dot == 0 || dot + 1 == eq) {
      return fail(source, "expected section.key=value");
    }
    const std::string sect = override_arg.substr(0, dot);
    const std::string key = override_arg.substr(dot + 1, eq - dot - 1);
    const std::string value = override_arg.substr(eq + 1);
    KvSection* kv = nullptr;
    if (sect == "workload") {
      kv = &c.workload;
    } else if (sect == "engine") {
      kv = &c.engine;
    } else if (sect == "outputs") {
      kv = &c.outputs;
    } else if (sect == "topology" || sect == "faults") {
      return fail(source, "section [" + sect +
                              "] has no key=value entries to override");
    } else {
      return fail(source, "unknown section '" + sect + "'");
    }
    if (KvEntry* existing = kv->find(key)) {
      existing->value = value;
      existing->source = source;
    } else {
      kv->entries.push_back(KvEntry{key, value, source});
    }
  }

  // -- pass 3: interpret ---------------------------------------------------
  ScenarioSpec spec;
  spec.name = c.name;

  const WorkloadRegistry& registry = WorkloadRegistry::instance();
  std::string error;
  auto fail_with_error = [&] {
    result.spec.reset();
    result.error = error;
    return result;
  };

  // [workload] — the type name picks the plugin; the plugin consumes its
  // own keys through the shared typed readers (workload.hpp), so every
  // workload gets identical error shapes and --set override behavior.
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
  ParamReader workload_params(c.workload, error);
  if (!plugin->parse_workload(workload_params, spec)) {
    return fail_with_error();
  }
  if (const KvEntry* stray = c.workload.first_unconsumed()) {
    if (claimed_by_other_plugin(registry, plugin, stray->key,
                                /*outputs=*/false)) {
      return fail(stray->source,
                  "key '" + stray->key + "' is not valid for workload type " +
                      std::string(plugin->name()));
    }
    return fail(stray->source,
                "unknown key '" + stray->key + "' in [workload]");
  }

  // [engine]
  ParamReader engine_params(c.engine, error);
  const KvEntry* shards_entry = nullptr;
  bool ok = engine_params.take_count(
      "shards", [&](std::uint64_t v, const KvEntry& entry) {
        spec.engine.shards = static_cast<std::size_t>(v);
        shards_entry = &entry;
      });
  if (ok && shards_entry != nullptr && spec.engine.shards == 0) {
    return fail(shards_entry->source, "shards must be positive");
  }
  const KvEntry* transport_entry = c.engine.take("transport");
  if (ok && transport_entry != nullptr) {
    if (transport_entry->value == "flow") {
      spec.engine.transport = sockets::TransportModel::kFlow;
    } else if (transport_entry->value == "tcp") {
      spec.engine.transport = sockets::TransportModel::kTcp;
    } else {
      return fail(transport_entry->source,
                  "unknown transport '" + transport_entry->value +
                      "' (tcp|flow)");
    }
  }
  const KvEntry* pnodes_entry = c.engine.take("physical_nodes");
  if (ok && pnodes_entry != nullptr && pnodes_entry->value != "auto") {
    const auto value = parse_u64(pnodes_entry->value);
    if (!value || *value == 0) {
      return fail(pnodes_entry->source,
                  "bad count '" + pnodes_entry->value +
                      "' for physical_nodes (a positive number, or auto)");
    }
    spec.engine.physical_nodes = static_cast<std::size_t>(*value);
  }
  const KvEntry* fold_entry = nullptr;
  ok = ok && engine_params.take_count(
                 "fold", [&](std::uint64_t v, const KvEntry& entry) {
                   spec.engine.fold = static_cast<std::size_t>(v);
                   fold_entry = &entry;
                 });
  if (ok && fold_entry != nullptr) {
    if (*spec.engine.fold == 0) {
      return fail(fold_entry->source, "fold must be positive");
    }
    if (spec.engine.physical_nodes) {
      return fail(fold_entry->source,
                  "fold and physical_nodes are mutually exclusive");
    }
  }
  ok = ok && engine_params.take_count(
                 "seed",
                 [&](std::uint64_t v, const KvEntry&) { spec.engine.seed = v; });
  const KvEntry* stop_entry = c.engine.take("stop");
  if (ok && stop_entry != nullptr) {
    if (stop_entry->value == "all_complete") {
      spec.engine.stop = StopMode::kAllComplete;
    } else if (stop_entry->value == "survivors_complete") {
      spec.engine.stop = StopMode::kSurvivorsComplete;
    } else if (stop_entry->value == "time") {
      spec.engine.stop = StopMode::kTime;
    } else {
      return fail(stop_entry->source,
                  "unknown stop mode '" + stop_entry->value +
                      "' (all_complete|survivors_complete|time)");
    }
  }
  const KvEntry* run_for_entry = nullptr;
  ok = ok && engine_params.take_duration(
                 "run_for", [&](Duration v, const KvEntry& entry) {
                   spec.engine.run_for = v;
                   run_for_entry = &entry;
                 });
  ok = ok && engine_params.take_bool("check_invariants", [&](bool v) {
    spec.engine.check_invariants = v;
  });
  ok = ok && engine_params.take_bool(
                 "trace", [&](bool v) { spec.engine.trace = v; });
  ok = ok && engine_params.take_bool(
                 "profile", [&](bool v) { spec.engine.profile = v; });
  ok = ok && engine_params.take_bool(
                 "pin", [&](bool v) { spec.engine.pin_workers = v; });
  if (!ok) return fail_with_error();
  if (spec.engine.stop == StopMode::kTime &&
      spec.engine.run_for <= Duration::zero()) {
    return fail(stop_entry != nullptr ? stop_entry->source : "[engine]",
                "stop=time requires run_for");
  }
  if (run_for_entry != nullptr && spec.engine.stop != StopMode::kTime) {
    return fail(run_for_entry->source, "run_for requires stop=time");
  }
  if (const KvEntry* stray = c.engine.first_unconsumed()) {
    return fail(stray->source, "unknown key '" + stray->key +
                                   "' in [engine] (expected " +
                                   engine_keys() + ")");
  }

  // [outputs] — the plugin consumes its own keys; strays from another
  // workload's surface get the "not valid for workload type" error below.
  ParamReader output_params(c.outputs, error);
  if (!plugin->parse_outputs(output_params, spec)) return fail_with_error();
  ok = output_params.take_string("bench_json", &spec.outputs.bench_json);
  ok = ok && output_params.take_string("profile_trace",
                                       &spec.outputs.profile_trace);
  ok = ok && output_params.take_bool(
                 "report", [&](bool v) { spec.outputs.report = v; });
  if (!ok) return fail_with_error();
  if (const KvEntry* stray = c.outputs.first_unconsumed()) {
    if (claimed_by_other_plugin(registry, plugin, stray->key,
                                /*outputs=*/true)) {
      return fail(stray->source,
                  "key '" + stray->key + "' is not valid for workload type " +
                      std::string(plugin->name()));
    }
    return fail(stray->source,
                "unknown key '" + stray->key + "' in [outputs]");
  }
  if (!spec.outputs.trace_file.empty()) spec.engine.trace = true;
  // Naming a profile output turns profiling on, mirroring trace.
  if (!spec.outputs.profile_trace.empty()) spec.engine.profile = true;

  // [topology]
  if (c.topo_auto &&
      (c.topo_include.has_value() || !c.topo_inline.empty())) {
    return fail_line(c.topo_auto->line,
                     "[topology] cannot mix 'auto' with other topology "
                     "sources");
  }
  if (c.topo_include && !c.topo_inline.empty()) {
    return fail_line(c.topo_include->line,
                     "[topology] cannot mix 'include' with inline "
                     "directives");
  }
  if (c.topo_auto) {
    spec.topology.source = TopologySource::kAuto;
    for (std::size_t i = 1; i < c.topo_auto_tokens.size(); ++i) {
      const std::string& token = c.topo_auto_tokens[i];
      if (const auto v = value_of(token, "down")) {
        const auto bw = topology::parse_bandwidth(*v);
        if (!bw) return fail_line(c.topo_auto->line, "bad down bandwidth");
        spec.topology.auto_link.down = *bw;
      } else if (const auto v2 = value_of(token, "up")) {
        const auto bw = topology::parse_bandwidth(*v2);
        if (!bw) return fail_line(c.topo_auto->line, "bad up bandwidth");
        spec.topology.auto_link.up = *bw;
      } else if (const auto v3 = value_of(token, "latency")) {
        const auto d = topology::parse_duration(*v3);
        if (!d) return fail_line(c.topo_auto->line, "bad latency");
        spec.topology.auto_link.latency = *d;
      } else if (const auto v4 = value_of(token, "loss")) {
        const auto p = parse_probability(*v4);
        if (!p) return fail_line(c.topo_auto->line, "bad loss rate");
        spec.topology.auto_link.loss_rate = *p;
      } else {
        return fail_line(c.topo_auto->line,
                         "unknown auto attribute '" + token + "'");
      }
    }
  } else if (c.topo_include) {
    const std::string path =
        resolve_path(options.base_dir, c.topo_include->text);
    const auto contents = read_file(path);
    if (!contents) {
      return fail_line(c.topo_include->line, "include '" +
                                                 c.topo_include->text +
                                                 "': cannot read file");
    }
    auto sub = topology::parse_topology(*contents);
    if (!sub.topology) {
      return fail_line(c.topo_include->line,
                       "include '" + c.topo_include->text + "': " +
                           sub.error);
    }
    spec.topology.source = TopologySource::kInline;
    spec.topology.built = std::move(*sub.topology);
  } else if (!c.topo_inline.empty()) {
    auto sub = topology::parse_topology(padded_text(c.topo_inline));
    if (!sub.topology) {
      result.spec.reset();
      result.error = sub.error;  // already "line N: ..." in our numbering
      return result;
    }
    spec.topology.source = TopologySource::kInline;
    spec.topology.built = std::move(*sub.topology);
  }
  if (spec.topology.built &&
      spec.topology.built->total_nodes() < spec.vnodes()) {
    return fail_line(0, "topology has " +
                            std::to_string(spec.topology.built->total_nodes()) +
                            " nodes but the workload needs " +
                            std::to_string(spec.vnodes()));
  }

  // [faults]
  if (c.faults_include && !c.faults_inline.empty()) {
    return fail_line(c.faults_include->line,
                     "[faults] cannot mix 'include' with inline directives");
  }
  if (c.faults_include) {
    const std::string path =
        resolve_path(options.base_dir, c.faults_include->text);
    const auto contents = read_file(path);
    if (!contents) {
      return fail_line(c.faults_include->line, "include '" +
                                                   c.faults_include->text +
                                                   "': cannot read file");
    }
    auto sub = fault::FaultPlan::parse(*contents);
    if (!sub.plan) {
      return fail_line(c.faults_include->line,
                       "include '" + c.faults_include->text + "': " +
                           sub.error);
    }
    spec.faults.plan = std::move(*sub.plan);
  } else if (!c.faults_inline.empty()) {
    auto sub = fault::FaultPlan::parse(padded_text(c.faults_inline));
    if (!sub.plan) {
      result.spec.reset();
      result.error = sub.error;  // already in our line numbering
      return result;
    }
    spec.faults.plan = std::move(*sub.plan);
  }
  if (c.churn_directive) {
    ChurnDirective& churn = spec.faults.churn;
    churn.enabled = true;
    bool window_seen = false;
    for (std::size_t i = 1; i < c.churn_tokens.size(); ++i) {
      const std::string& token = c.churn_tokens[i];
      const int at = c.churn_directive->line;
      if (const auto v = value_of(token, "fraction")) {
        const auto p = parse_probability(*v);
        if (!p) return fail_line(at, "bad churn fraction");
        churn.fraction = *p;
      } else if (const auto v2 = value_of(token, "window")) {
        const std::string window(*v2);
        const auto dots = window.find("..");
        if (dots == std::string::npos) {
          return fail_line(at, "churn window=START..END");
        }
        const auto start =
            fault::parse_scenario_duration(window.substr(0, dots));
        const auto end =
            fault::parse_scenario_duration(window.substr(dots + 2));
        if (!start || !end) {
          return fail_line(at, "bad churn window '" + window + "'");
        }
        if (*end < *start) {
          return fail_line(at, "churn window end before start");
        }
        churn.window_start = *start;
        churn.window_end = *end;
        window_seen = true;
      } else if (const auto v3 = value_of(token, "rejoin")) {
        const auto p = parse_probability(*v3);
        if (!p) return fail_line(at, "bad churn rejoin fraction");
        churn.rejoin_fraction = *p;
      } else if (const auto v4 = value_of(token, "rejoin_min")) {
        const auto d = fault::parse_scenario_duration(*v4);
        if (!d) return fail_line(at, "bad churn rejoin_min");
        churn.rejoin_min = *d;
      } else if (const auto v5 = value_of(token, "rejoin_max")) {
        const auto d = fault::parse_scenario_duration(*v5);
        if (!d) return fail_line(at, "bad churn rejoin_max");
        churn.rejoin_max = *d;
      } else if (const auto v6 = value_of(token, "leave")) {
        const auto p = parse_probability(*v6);
        if (!p) return fail_line(at, "bad churn leave fraction");
        churn.leave_fraction = *p;
      } else if (const auto v7 = value_of(token, "first")) {
        const auto n = parse_u64(*v7);
        if (!n) return fail_line(at, "bad churn first node");
        churn.first_node = static_cast<std::size_t>(*n);
      } else if (const auto v8 = value_of(token, "last")) {
        const auto n = parse_u64(*v8);
        if (!n) return fail_line(at, "bad churn last node");
        churn.last_node = static_cast<std::size_t>(*n);
      } else if (const auto v9 = value_of(token, "seed")) {
        const auto n = parse_u64(*v9);
        if (!n) return fail_line(at, "bad churn seed");
        churn.rng_stream = *n;
      } else {
        return fail_line(at, "unknown churn attribute '" + token + "'");
      }
    }
    if (!window_seen) {
      return fail_line(c.churn_directive->line,
                       "churn needs window=START..END");
    }
  }
  if (!spec.faults.empty() && !plugin->supports_faults()) {
    const int at = c.faults_include ? c.faults_include->line
                   : c.churn_directive ? c.churn_directive->line
                   : !c.faults_inline.empty() ? c.faults_inline.front().line
                                              : 0;
    return fail_line(at, "[faults] requires workload type " +
                             registry.fault_capable_names());
  }
  if (spec.engine.stop == StopMode::kSurvivorsComplete &&
      !plugin->supports_survivors_stop()) {
    return fail(stop_entry != nullptr ? stop_entry->source : "[engine]",
                "stop=survivors_complete requires workload type " +
                    registry.survivors_stop_names());
  }
  // Whole-spec validation owned by the plugin (e.g. gossip requires
  // stop=time), blamed on the [engine] stop source like the stop checks.
  if (std::string message = plugin->validate_spec(spec); !message.empty()) {
    return fail(stop_entry != nullptr ? stop_entry->source : "[engine]",
                message);
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
