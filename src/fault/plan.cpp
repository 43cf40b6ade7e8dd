#include "fault/plan.hpp"

#include <algorithm>
#include <array>
#include <iterator>

namespace p2plab::fault {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kCrash: return "crash";
    case FaultKind::kLeave: return "leave";
    case FaultKind::kLinkDown: return "link_down";
    case FaultKind::kLatencySpike: return "latency_spike";
    case FaultKind::kBurstLoss: return "burst_loss";
    case FaultKind::kTrackerOutage: return "tracker_outage";
  }
  return "unknown";
}

FaultPlan& FaultPlan::crash(std::size_t node, SimTime at) {
  specs_.push_back({.kind = FaultKind::kCrash, .node = node, .at = at});
  return *this;
}

FaultPlan& FaultPlan::crash_and_rejoin(std::size_t node, SimTime at,
                                       Duration after) {
  specs_.push_back({.kind = FaultKind::kCrash, .node = node, .at = at,
                    .duration = after, .rejoin = true});
  return *this;
}

FaultPlan& FaultPlan::leave(std::size_t node, SimTime at) {
  specs_.push_back({.kind = FaultKind::kLeave, .node = node, .at = at});
  return *this;
}

FaultPlan& FaultPlan::link_down(std::size_t node, SimTime at,
                                Duration window) {
  specs_.push_back({.kind = FaultKind::kLinkDown, .node = node, .at = at,
                    .duration = window});
  return *this;
}

FaultPlan& FaultPlan::latency_spike(std::size_t node, SimTime at,
                                    Duration extra, Duration window) {
  specs_.push_back({.kind = FaultKind::kLatencySpike, .node = node, .at = at,
                    .duration = window, .extra_latency = extra});
  return *this;
}

FaultPlan& FaultPlan::burst_loss(std::size_t node, SimTime at,
                                 Duration window,
                                 const ipfw::GilbertElliott& ge) {
  specs_.push_back({.kind = FaultKind::kBurstLoss, .node = node, .at = at,
                    .duration = window, .burst = ge});
  return *this;
}

FaultPlan& FaultPlan::tracker_outage(SimTime at, Duration window) {
  specs_.push_back({.kind = FaultKind::kTrackerOutage, .at = at,
                    .duration = window});
  return *this;
}

FaultPlan& FaultPlan::append(const FaultPlan& other) {
  specs_.insert(specs_.end(), other.specs_.begin(), other.specs_.end());
  return *this;
}

void FaultPlan::sort() {
  std::stable_sort(specs_.begin(), specs_.end(),
                   [](const FaultSpec& a, const FaultSpec& b) {
                     return a.at < b.at;
                   });
}

std::vector<FailureWindow> FaultPlan::failure_windows() const {
  std::vector<FailureWindow> windows;
  for (const FaultSpec& spec : specs_) {
    if (spec.kind != FaultKind::kCrash && spec.kind != FaultKind::kLeave) {
      continue;
    }
    windows.push_back(
        {.node = spec.node,
         .down = spec.at,
         .up = spec.kind == FaultKind::kCrash && spec.rejoin
                   ? spec.at + spec.duration
                   : SimTime::max()});
  }
  return windows;
}

FaultPlan FaultPlan::churn(const ChurnConfig& config, Rng& rng) {
  FaultPlan plan;
  P2PLAB_ASSERT(config.first_node <= config.last_node);
  P2PLAB_ASSERT(config.window_end >= config.window_start);
  const std::size_t population = config.last_node - config.first_node + 1;
  const auto victims_wanted = static_cast<std::size_t>(
      static_cast<double>(population) * config.fraction);

  // Choose distinct victims by shuffling the population and taking a
  // prefix; every draw below comes from `rng` in a fixed order, so the
  // schedule is a pure function of (config, rng state).
  std::vector<std::size_t> nodes(population);
  for (std::size_t k = 0; k < population; ++k) {
    nodes[k] = config.first_node + k;
  }
  rng.shuffle(nodes);
  nodes.resize(victims_wanted);

  const double window_ns = static_cast<double>(
      (config.window_end - config.window_start).count_ns());
  for (const std::size_t node : nodes) {
    const SimTime at =
        config.window_start +
        Duration::ns(static_cast<std::int64_t>(rng.uniform01() * window_ns));
    if (rng.chance(config.leave_fraction)) {
      plan.leave(node, at);
    } else if (rng.chance(config.rejoin_fraction)) {
      const Duration down =
          config.rejoin_min +
          (config.rejoin_max - config.rejoin_min).scaled(rng.uniform01());
      plan.crash_and_rejoin(node, at, down);
    } else {
      plan.crash(node, at);
    }
  }
  plan.sort();
  return plan;
}

namespace {

/// The fault directives, their usage lines and required attributes.
struct Directive {
  const char* name;
  const char* usage;
  std::array<const char*, 5> required;
};
constexpr Directive kDirectives[] = {
    {"crash", "crash node=N at=T [rejoin=D]", {"node", "at"}},
    {"leave", "leave node=N at=T", {"node", "at"}},
    {"linkdown", "linkdown node=N at=T for=D", {"node", "at", "for"}},
    {"spike", "spike node=N at=T add=D for=D", {"node", "at", "add", "for"}},
    {"burstloss",
     "burstloss node=N at=T for=D pgb=P pbg=P [lossbad=P] [lossgood=P]",
     {"node", "at", "for", "pgb", "pbg"}},
    {"tracker_outage", "tracker_outage at=T for=D", {"at", "for"}},
};

}  // namespace

PlanParseResult FaultPlan::parse(std::span<const text::TokenLine> lines,
                                 std::size_t max_node) {
  FaultPlan plan;
  std::string error;
  text::KvSection attributes("");
  for (const text::TokenLine& line : lines) {
    const std::string& directive = line.tokens[0];
    const std::string source = text::line_source(line.number);
    attributes.reset(directive.c_str());
    if (!attributes.add_attributes(line.tokens.subspan(1), source, &error)) {
      return PlanParseResult{std::nullopt, error};
    }
    text::ParamReader reader(attributes, error);
    const auto form = std::find_if(
        std::begin(kDirectives), std::end(kDirectives),
        [&](const Directive& d) { return directive == d.name; });
    if (form == std::end(kDirectives)) {
      return PlanParseResult{std::nullopt, source + ": unknown directive '" +
                                               directive + "'"};
    }
    for (const char* key : form->required) {
      if (key != nullptr && !reader.has(key)) {
        return PlanParseResult{std::nullopt, source + ": " + form->usage};
      }
    }

    std::size_t node = 0;
    Duration at;
    Duration window;
    bool ok = reader.take_count("node", &node, max_node) &&
              reader.take_duration("at", &at);
    const SimTime when = SimTime::zero() + at;
    if (directive == "crash") {
      Duration rejoin;
      const bool rejoins = reader.has("rejoin");
      ok = ok && reader.take_duration("rejoin", &rejoin);
      if (ok && rejoins) {
        plan.crash_and_rejoin(node, when, rejoin);
      } else if (ok) {
        plan.crash(node, when);
      }
    } else if (directive == "leave") {
      if (ok) plan.leave(node, when);
    } else if (directive == "linkdown") {
      ok = ok && reader.take_duration("for", &window);
      if (ok) plan.link_down(node, when, window);
    } else if (directive == "spike") {
      Duration extra;
      ok = ok && reader.take_duration("add", &extra) &&
           reader.take_duration("for", &window);
      if (ok) plan.latency_spike(node, when, extra, window);
    } else if (directive == "burstloss") {
      ipfw::GilbertElliott ge;
      ok = ok && reader.take_duration("for", &window) &&
           reader.take_probability("pgb", &ge.p_good_to_bad) &&
           reader.take_probability("pbg", &ge.p_bad_to_good) &&
           reader.require("pbg", ge.p_bad_to_good > 0,
                          "pbg must be positive") &&
           reader.take_probability("lossbad", &ge.loss_bad) &&
           reader.take_probability("lossgood", &ge.loss_good);
      if (ok) plan.burst_loss(node, when, window, ge);
    } else {  // tracker_outage
      ok = ok && reader.take_duration("for", &window);
      if (ok) plan.tracker_outage(when, window);
    }
    if (!ok || !reader.finish()) return PlanParseResult{std::nullopt, error};
  }

  plan.sort();
  return PlanParseResult{std::move(plan), ""};
}

PlanParseResult FaultPlan::parse(std::string_view source,
                                 std::size_t max_node) {
  const text::Lexed lexed = text::lex(source);
  if (!lexed.error.empty()) return PlanParseResult{std::nullopt, lexed.error};
  return parse(lexed.lines, max_node);
}

}  // namespace p2plab::fault
