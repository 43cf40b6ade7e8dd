// The shipped experiment catalog, as C++ spec builders.
//
// Each function returns the ScenarioSpec behind one scenarios/*.scn file
// (same name); the scenario parser test asserts the two stay equal, so the
// DSL files and the bench binaries can never drift apart. The size
// parameters exist for the benches' P2PLAB_* environment knobs — with the
// defaults, catalog::X() == parse(scenarios/X.scn).
#pragma once

#include <cstddef>

#include "scenario/spec.hpp"

namespace p2plab::scenario::catalog {

/// Figure 6: ping RTT vs firewall-rule count on a delay-free LAN link.
ScenarioSpec fig6();

/// Figure 8: 160-client download of a 16 MB file over DSL links.
ScenarioSpec fig8(std::size_t clients = 160);

/// One fold of the Figure 9 sweep: the fig8 swarm on clients/fold + 1
/// physical nodes. No outputs — the fig9 bench aggregates across folds.
ScenarioSpec fig9_fold(std::size_t clients, std::size_t fold);

/// Figures 10+11: the scalability run at 32 vnodes per pnode.
ScenarioSpec fig10(std::size_t clients = 1440);

/// The churn experiment: the fig8 swarm under crash/rejoin churn plus a
/// tracker outage and link faults, with the robustness invariants checked.
ScenarioSpec churn(std::size_t clients = 160, double churn_pct = 30.0);

/// The clean reference run the churn bench compares against.
ScenarioSpec churn_baseline(std::size_t clients = 160);

/// Flash crowd (non-paper): 256 clients arrive within ~64 s of each other
/// and the tracker dies just as they do — cached peer lists must carry the
/// swarm through.
ScenarioSpec flash_crowd();

/// SWIM gossip membership under churn and burst loss: detection latency
/// per crashed member plus the cluster-wide false-positive rate.
ScenarioSpec gossip(std::size_t nodes = 48);

/// The emulator-accuracy harness: goodput / RTT additivity / Jain
/// fairness / Gilbert-Elliott loss, measured against the configured
/// topology, under the TCP congestion model (DESIGN.md §13).
ScenarioSpec accuracy();

}  // namespace p2plab::scenario::catalog
