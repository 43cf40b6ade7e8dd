// Mutation fuzzing of the experiment-file grammar (common/text.hpp): the
// bytes of every shipped `.scn`, the shipped `.fault` example and the
// topology text of examples/custom_topology.cpp are flipped, deleted,
// duplicated and salted with grammar characters, and every parser must
// either accept the result or refuse it with a "line N: ..." error for a
// line of the input. A throw or an assert fails the suite.
//
// An accepted input must also hold only values the run can use: faults
// inside the workload's vnodes, non-negative times, probabilities in
// [0, 1]. The seed list is fixed, so the suite is deterministic.
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "fault/plan.hpp"
#include "scenario/parser.hpp"
#include "scenario/workload.hpp"
#include "topology/parser.hpp"

namespace p2plab {
namespace {

const std::string kSourceDir = P2PLAB_SOURCE_DIR;
// Mutants per input file: ~0.2 s for the whole suite in a release build.
constexpr std::uint64_t kSeeds = 3000;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// The topology description embedded in examples/custom_topology.cpp.
std::string example_topology() {
  const std::string source =
      read_file(kSourceDir + "/examples/custom_topology.cpp");
  const auto open = source.find("R\"(");
  const auto close = source.find(")\";", open);
  if (open == std::string::npos || close == std::string::npos) return "";
  return source.substr(open + 3, close - open - 3);
}

/// Characters the grammar gives a meaning to, and the spellings of the
/// values it must refuse.
const std::vector<std::string> kSalt = {
    "#", "\"", "=", ".", "-", "e", "0", "1", "5", "9", "nan"};

std::string mutate(std::string text, Rng& rng) {
  const std::size_t edits = 1 + rng.uniform(4);
  for (std::size_t k = 0; k < edits; ++k) {
    std::size_t at = text.empty() ? 0 : rng.uniform(text.size());
    // Half the edits land at the start of a value or token, where the
    // grammar decides the most.
    if (rng.chance(0.5)) {
      const std::size_t mark = text.find_first_of("= ", at);
      if (mark != std::string::npos) at = mark + 1;
    }
    switch (rng.uniform(4)) {
      case 0:  // flip one bit
        if (!text.empty()) {
          text[at] = static_cast<char>(text[at] ^ (1 << rng.uniform(7)));
        }
        break;
      case 1:  // delete a short run
        text.erase(at, 1 + rng.uniform(3));
        break;
      case 2:  // duplicate a short run
        text.insert(at, text.substr(at, 1 + rng.uniform(8)));
        break;
      default:  // insert a grammar character or value
        text.insert(at, kSalt[rng.uniform(kSalt.size())]);
        break;
    }
  }
  return text;
}

/// Empty when `error` is a "line N: ..." message for a line of `input`.
std::string check_error(const std::string& input, const std::string& error) {
  const std::size_t lines =
      1 + static_cast<std::size_t>(
              std::count(input.begin(), input.end(), '\n'));
  std::size_t number = 0;
  std::size_t pos = 5;
  if (error.rfind("line ", 0) != 0) return "no line prefix";
  while (pos < error.size() && error[pos] >= '0' && error[pos] <= '9') {
    number = number * 10 + static_cast<std::size_t>(error[pos] - '0');
    ++pos;
  }
  if (pos == 5 || error.compare(pos, 2, ": ") != 0) return "malformed prefix";
  if (number > lines) return "line number past the input";
  return "";
}

enum class Format { kScenario, kFault, kTopology };

bool is_probability(double p) { return p >= 0 && p <= 1; }  // false on NaN

/// What an accepted spec must never hold: a fault or churn bound naming a
/// vnode the workload does not have (the run would abort on it), a
/// negative time, or a probability outside [0, 1] (NaN included).
std::string link_problem(const topology::LinkClass& link) {
  if (link.latency < Duration::zero() || !is_probability(link.loss_rate) ||
      !is_probability(link.burst_p_good_bad) ||
      !is_probability(link.burst_p_bad_good) ||
      !is_probability(link.burst_loss_bad)) {
    return "accepted link class out of range";
  }
  return "";
}

std::string plan_problem(const fault::FaultPlan& plan, std::size_t vnodes) {
  for (const fault::FaultSpec& f : plan.specs()) {
    if (f.kind != fault::FaultKind::kTrackerOutage && f.node >= vnodes) {
      return "accepted fault node " + std::to_string(f.node);
    }
    if (f.at < SimTime::zero() || f.duration < Duration::zero() ||
        f.extra_latency < Duration::zero() ||
        !is_probability(f.burst.p_good_to_bad) ||
        !is_probability(f.burst.p_bad_to_good) ||
        !is_probability(f.burst.loss_bad) ||
        !is_probability(f.burst.loss_good)) {
      return "accepted fault value out of range";
    }
  }
  return "";
}

std::string spec_problem(const scenario::ScenarioSpec& spec) {
  const std::size_t vnodes = spec.vnodes();
  const scenario::ChurnDirective& churn = spec.faults.churn;
  if (churn.enabled) {
    // Resolved the way the runner expands it: unset bounds come from the
    // workload's default victims.
    const scenario::NodeRange victims = scenario::churn_range(spec);
    if (victims.first > victims.last || victims.last >= vnodes) {
      return "accepted churn range outside the workload";
    }
  }
  const fault::ChurnConfig& schedule = churn.schedule;
  if (!is_probability(schedule.fraction) ||
      !is_probability(schedule.rejoin_fraction) ||
      !is_probability(schedule.leave_fraction) ||
      schedule.window_start < SimTime::zero() ||
      schedule.rejoin_min < Duration::zero() ||
      schedule.rejoin_max < schedule.rejoin_min) {
    return "accepted churn value out of range";
  }
  if (spec.swarm.file_size == DataSize::zero() ||
      spec.swarm.max_duration < Duration::zero() ||
      spec.swarm.start_interval < Duration::zero()) {
    return "accepted swarm value out of range";
  }
  std::string problem = link_problem(spec.topology.auto_link);
  if (spec.topology.built) {
    for (const topology::Zone& zone : spec.topology.built->zones()) {
      if (problem.empty()) problem = link_problem(zone.link);
    }
    for (const topology::LatencyPair& pair :
         spec.topology.built->latencies()) {
      if (problem.empty() && pair.latency < Duration::zero()) {
        problem = "accepted negative latency";
      }
    }
  }
  return problem.empty() ? plan_problem(spec.faults.plan, vnodes) : problem;
}

/// Parse `input` in `format`; returns the error, or "" when accepted.
std::string parse(Format format, const std::string& input) {
  switch (format) {
    case Format::kScenario: {
      scenario::ParseOptions options;
      options.base_dir = kSourceDir + "/scenarios";
      const scenario::ParseResult result =
          scenario::parse_scenario(input, options);
      return result.spec ? spec_problem(*result.spec) : result.error;
    }
    case Format::kFault: {
      const fault::PlanParseResult result = fault::FaultPlan::parse(input);
      return result.plan ? plan_problem(*result.plan, SIZE_MAX) : result.error;
    }
    case Format::kTopology: {
      const topology::ParseResult result = topology::parse_topology(input);
      if (!result.topology) return result.error;
      for (const topology::Zone& zone : result.topology->zones()) {
        if (std::string problem = link_problem(zone.link); !problem.empty()) {
          return problem;
        }
      }
      return "";
    }
  }
  return "";
}

void fuzz(Format format, const std::string& name,
          const std::string& seed_text) {
  ASSERT_FALSE(seed_text.empty()) << name;
  ASSERT_EQ(parse(format, seed_text), "") << name << " must parse as shipped";
  for (std::uint64_t seed = 1; seed <= kSeeds; ++seed) {
    Rng rng(seed);
    const std::string input = mutate(seed_text, rng);
    std::string error;
    try {
      error = parse(format, input);
    } catch (const std::exception& e) {
      ADD_FAILURE() << name << " seed " << seed << " threw " << e.what();
      continue;
    }
    if (error.empty()) continue;
    const std::string problem = check_error(input, error);
    EXPECT_EQ(problem, "") << name << " seed " << seed << ": " << error
                           << "\n--- input ---\n" << input;
  }
}

TEST(TextFuzz, ShippedScenarios) {
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(
           kSourceDir + "/scenarios")) {
    if (entry.path().extension() == ".scn") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 8u);
  for (const std::string& path : files) {
    fuzz(Format::kScenario, path, read_file(path));
  }
}

TEST(TextFuzz, ShippedFaultPlan) {
  const std::string path = kSourceDir + "/scenarios/example_churn.fault";
  fuzz(Format::kFault, path, read_file(path));
}

TEST(TextFuzz, ExampleTopology) {
  fuzz(Format::kTopology, "custom_topology.cpp", example_topology());
}

TEST(TextFuzz, MinimizedRegressions) {
  // Mutants the suite found accepted by the parsers it replaced,
  // minimized by hand: each must now be refused on the offending line.
  const std::pair<Format, const char*> inputs[] = {
      // example_churn.fault seed 349: a NaN injection time.
      {Format::kFault, "crash node=4 at=nan\n"},
      // churn.scn seed 2617: a link fault on vnode 5 of a swarm whose
      // mutated client count left it 5 vnodes.
      {Format::kScenario,
       "scenario churn\n[workload]\ntype swarm\nclients 0\n"
       "[faults]\nlinkdown node=5 at=300 for=20\n"},
      // gossip.scn seed 393: a loss window on member 52 of 48.
      {Format::kScenario,
       "scenario gossip\n[workload]\ntype gossip\nnodes 48\n"
       "[faults]\nburstloss node=52 at=40 for=20 pgb=0.05 pbg=0.3\n"
       "[engine]\nstop time\nrun_for 180\n"},
  };
  for (const auto& [format, input] : inputs) {
    const std::string error = parse(format, input);
    EXPECT_NE(error, "") << input;
    EXPECT_EQ(check_error(input, error), "") << error;
  }
}

}  // namespace
}  // namespace p2plab
