#include "scenario/catalog.hpp"

#include "common/assert.hpp"
#include "topology/parser.hpp"

namespace p2plab::scenario::catalog {

ScenarioSpec fig6() {
  ScenarioSpec spec;
  spec.name = "fig6";
  spec.workload = "ping_sweep";
  auto topo = topology::parse_topology(
      "zone lan 10.0.0.0/24 nodes=2 down=unlimited up=unlimited "
      "latency=0ms\n");
  P2PLAB_ASSERT(topo.topology.has_value());
  spec.topology.source = TopologySource::kInline;
  spec.topology.built = std::move(*topo.topology);
  spec.outputs.csv = "fig6_ipfw_rules";
  spec.outputs.csv_note =
      "paper: ~linear, reaching ~5 ms RTT at 50k rules "
      "(2 traversals x 50 ns/rule)";
  spec.outputs.bench_json = "BENCH_fig6";
  spec.outputs.report = true;
  return spec;
}

ScenarioSpec fig8(std::size_t clients) {
  ScenarioSpec spec;
  spec.name = "fig8";
  spec.swarm.clients = clients;  // everything else: the paper's defaults
  spec.outputs.progress_envelope = "fig8_progress_envelope";
  spec.outputs.completions = "fig8_completion_times";
  spec.outputs.completions_note =
      "paper: three swarm phases visible; completions cluster ~1500-2000 s";
  spec.outputs.bench_json = "BENCH_fig8";
  spec.outputs.metrics = "fig8_metrics";
  return spec;
}

ScenarioSpec fig9_fold(std::size_t clients, std::size_t fold) {
  ScenarioSpec spec;
  spec.name = "fig9_fold" + std::to_string(fold);
  spec.swarm.clients = clients;
  // The paper's 160/16/8/4/2 deployments of the clients (tracker and
  // seeders ride along).
  spec.engine.physical_nodes = clients / fold + 1;
  return spec;
}

ScenarioSpec fig10(std::size_t clients) {
  ScenarioSpec spec;
  spec.name = "fig10";
  spec.swarm.clients = clients;
  spec.swarm.start_interval = Duration::millis(250);
  spec.swarm.max_duration = Duration::sec(30000);
  spec.engine.fold = 32;  // the paper's 32 vnodes per pnode
  spec.outputs.sampled_progress = "fig10_sampled_progress";
  spec.outputs.sampled_every = 50;
  spec.outputs.completion_curve = "fig11_completion_curve";
  spec.outputs.completion_curve_note =
      "paper: S-curve; most of the swarm completes together";
  spec.outputs.bench_json = "BENCH_fig10";
  spec.outputs.metrics = "fig10_metrics";
  return spec;
}

ScenarioSpec churn(std::size_t clients, double churn_pct) {
  ScenarioSpec spec;
  spec.name = "churn";
  spec.swarm.clients = clients;

  spec.faults.churn.enabled = true;
  spec.faults.churn.fraction = churn_pct / 100.0;
  spec.faults.churn.window_start = Duration::sec(200);
  spec.faults.churn.window_end = Duration::sec(1200);
  // rejoin 0.5 in 30..120 s: the ChurnDirective defaults.

  // Tracker outage (announce backoff + cached peers must carry the swarm)
  // plus link faults on two never-crashed clients, for coverage. Client c
  // lives on vnode first + c (Swarm's layout contract).
  const std::size_t first = 1 + spec.swarm.seeders;
  spec.faults.plan.tracker_outage(SimTime::zero() + Duration::sec(400),
                                  Duration::sec(120));
  spec.faults.plan.link_down(first, SimTime::zero() + Duration::sec(300),
                             Duration::sec(20));
  spec.faults.plan.burst_loss(first + 1, SimTime::zero() + Duration::sec(500),
                              Duration::sec(60),
                              ipfw::GilbertElliott{.p_good_to_bad = 0.02,
                                                   .p_bad_to_good = 0.3,
                                                   .loss_bad = 0.7});
  spec.faults.plan.latency_spike(first + 2,
                                 SimTime::zero() + Duration::sec(600),
                                 Duration::ms(200), Duration::sec(60));
  // Keep time order, like the DSL parser does: equivalence is exact.
  spec.faults.plan.sort();

  spec.engine.stop = StopMode::kSurvivorsComplete;
  spec.engine.check_invariants = true;
  spec.engine.trace = true;
  spec.outputs.summary = "churn_summary";
  spec.outputs.bench_json = "BENCH_churn";
  spec.outputs.metrics = "churn_metrics";
  spec.outputs.trace_file = "trace.jsonl";
  return spec;
}

ScenarioSpec churn_baseline(std::size_t clients) {
  ScenarioSpec spec;
  spec.name = "churn_baseline";
  spec.swarm.clients = clients;
  return spec;  // no outputs: the churn bench only reads the median
}

ScenarioSpec flash_crowd() {
  ScenarioSpec spec;
  spec.name = "flashcrowd";
  spec.swarm.clients = 256;
  spec.swarm.seeders = 2;
  spec.swarm.file_size = DataSize::mib(4);
  spec.swarm.start_interval = Duration::millis(250);
  spec.swarm.max_duration = Duration::sec(8000);
  spec.engine.fold = 32;
  spec.faults.plan.tracker_outage(SimTime::zero() + Duration::sec(60),
                                  Duration::sec(60));
  spec.outputs.progress_envelope = "flashcrowd_progress_envelope";
  spec.outputs.completion_curve = "flashcrowd_completion_curve";
  spec.outputs.bench_json = "BENCH_flashcrowd";
  spec.outputs.metrics = "flashcrowd_metrics";
  return spec;
}

ScenarioSpec gossip(std::size_t nodes) {
  ScenarioSpec spec;
  spec.name = "gossip";
  spec.workload = "gossip";
  spec.gossip.nodes = nodes;

  // A quarter of the members (never the introducer, vnode 0) fails inside
  // the 30..90 s window; half come back after 20-40 s down.
  spec.faults.churn.enabled = true;
  spec.faults.churn.fraction = 0.25;
  spec.faults.churn.window_start = Duration::sec(30);
  spec.faults.churn.window_end = Duration::sec(90);
  spec.faults.churn.rejoin_fraction = 0.5;
  spec.faults.churn.rejoin_min = Duration::sec(20);
  spec.faults.churn.rejoin_max = Duration::sec(40);

  // Two bursty-loss windows on never-churned-by-default members: lost
  // pings must escalate to indirect probes and suspicion, not straight to
  // a false confirm.
  spec.faults.plan.burst_loss(2, SimTime::zero() + Duration::sec(40),
                              Duration::sec(20),
                              ipfw::GilbertElliott{.p_good_to_bad = 0.05,
                                                   .p_bad_to_good = 0.3,
                                                   .loss_bad = 0.8});
  spec.faults.plan.burst_loss(3, SimTime::zero() + Duration::sec(100),
                              Duration::sec(20),
                              ipfw::GilbertElliott{.p_good_to_bad = 0.05,
                                                   .p_bad_to_good = 0.3,
                                                   .loss_bad = 0.8});
  // Keep time order, like the DSL parser does: equivalence is exact.
  spec.faults.plan.sort();

  spec.engine.stop = StopMode::kTime;
  spec.engine.run_for = Duration::sec(180);
  spec.engine.check_invariants = true;
  spec.outputs.detection_csv = "gossip_detection";
  spec.outputs.fp_summary = "gossip_fp_summary";
  spec.outputs.bench_json = "BENCH_gossip";
  return spec;
}

ScenarioSpec accuracy() {
  ScenarioSpec spec;
  spec.name = "accuracy";
  spec.workload = "validate";
  // Built through the same topology-DSL parser the .scn file goes
  // through, so catalog and file cannot diverge on link semantics.
  auto topo = topology::parse_topology(
      "zone senders 10.1.0.0/24 nodes=4 down=8M up=2M latency=20ms\n"
      "zone sink    10.2.0.0/24 nodes=2 down=2M up=2M latency=30ms\n"
      "zone far     10.3.0.0/24 nodes=4 down=2M up=512k latency=40ms\n"
      "latency senders sink 100ms\n"
      "latency senders far 400ms\n"
      "latency sink far 200ms\n");
  P2PLAB_ASSERT(topo.topology.has_value());
  spec.topology.source = TopologySource::kInline;
  spec.topology.built = std::move(*topo.topology);
  spec.validate.nodes = 10;
  spec.validate.flows = 4;
  spec.validate.transfer = DataSize::mib(2);
  spec.validate.message = DataSize::kib(16);
  spec.validate.loss_datagrams = 20000;
  spec.engine.transport = TransportModel::kTcp;
  spec.outputs.accuracy_json = "ACCURACY";
  spec.outputs.bench_json = "BENCH_accuracy";
  return spec;
}

}  // namespace p2plab::scenario::catalog
