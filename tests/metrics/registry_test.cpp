#include "metrics/registry.hpp"

#include <gtest/gtest.h>

#include "common/time.hpp"
#include "sim/simulation.hpp"

namespace p2plab::metrics {
namespace {

TEST(Registry, CounterSemantics) {
  Registry reg;
  Counter c = reg.counter("a.count");
  EXPECT_EQ(c.value(), 0u);
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  EXPECT_DOUBLE_EQ(reg.value("a.count"), 42.0);
}

TEST(Registry, GaugeSemantics) {
  Registry reg;
  Gauge g = reg.gauge("a.level");
  g.set(3.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(reg.value("a.level"), 2.0);
}

TEST(Registry, HistogramSemantics) {
  Registry reg;
  Histogram h = reg.histogram("a.dist", {1.0, 10.0});
  h.record(0.5);   // bucket 0 (<= 1)
  h.record(5.0);   // bucket 1 (<= 10)
  h.record(100.0); // bucket 2 (+inf)
  const HistogramData& d = h.data();
  EXPECT_EQ(d.count, 3u);
  ASSERT_EQ(d.buckets.size(), 3u);
  EXPECT_EQ(d.buckets[0], 1u);
  EXPECT_EQ(d.buckets[1], 1u);
  EXPECT_EQ(d.buckets[2], 1u);
  EXPECT_DOUBLE_EQ(d.min, 0.5);
  EXPECT_DOUBLE_EQ(d.max, 100.0);
  EXPECT_DOUBLE_EQ(d.mean(), 105.5 / 3.0);
}

TEST(Registry, SameNameSharesCell) {
  // The aggregation mechanism: 180 firewalls resolving "ipfw.rules_scanned"
  // all increment one cell.
  Registry reg;
  Counter a = reg.counter("shared");
  Counter b = reg.counter("shared");
  a.inc(2);
  b.inc(3);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(b.value(), 5u);
}

TEST(Registry, UnboundHandlesAreSafe) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.set(1.0);
  h.record(1.0);  // all land in the shared sinks; no crash, no registry
}

TEST(Registry, SnapshotSortedByName) {
  Registry reg;
  reg.counter("zz.last");
  reg.gauge("aa.first");
  reg.histogram("mm.mid", {1.0});
  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "aa.first");
  EXPECT_EQ(snap[1].name, "mm.mid");
  EXPECT_EQ(snap[2].name, "zz.last");
  EXPECT_EQ(snap[1].kind, MetricKind::kHistogram);
  ASSERT_NE(snap[1].hist, nullptr);
  EXPECT_EQ(snap[0].hist, nullptr);
}

TEST(Registry, ValueOfUnknownNameIsZero) {
  Registry reg;
  EXPECT_DOUBLE_EQ(reg.value("no.such.metric"), 0.0);
}

TEST(Registry, FoldShardsMovesCountsAndSumsGaugeLevels) {
  Registry master;
  Registry a;
  Registry b;
  const Counter ca = a.counter("n");
  const Counter cb = b.counter("n");
  const Gauge ga = a.gauge("depth");
  const Gauge gb = b.gauge("depth");
  const Histogram ha = a.histogram("d", {1.0});
  for (int fold = 1; fold <= 3; ++fold) {
    ca.inc(2);
    cb.inc(3);
    ga.set(10.0 * fold);
    gb.set(1.0);
    ha.record(0.5);
    master.fold_shards({&a, &b});
    EXPECT_DOUBLE_EQ(master.value("n"), 5.0 * fold);
    EXPECT_DOUBLE_EQ(master.value("depth"), 10.0 * fold + 1.0);
    EXPECT_DOUBLE_EQ(master.value("d"), static_cast<double>(fold));
    // Counts moved out of the shards, zeroed in place; gauge levels
    // stayed.
    EXPECT_EQ(ca.value(), 0u);
    EXPECT_EQ(ha.data().count, 0u);
    EXPECT_DOUBLE_EQ(ga.value(), 10.0 * fold);
  }
  ca.inc();  // the shard's handles still point at live storage
  EXPECT_DOUBLE_EQ(a.value("n"), 1.0);
}

TEST(Registry, SimulationKernelMetricsMatchDispatchCount) {
  sim::Simulation sim;
  Registry reg;
  sim.bind_metrics(reg);
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_after(Duration::ms(i), [&fired] { ++fired; });
  }
  const sim::EventId victim =
      sim.schedule_after(Duration::sec(1), [&fired] { ++fired; });
  EXPECT_TRUE(sim.cancel(victim));
  sim.run();
  EXPECT_EQ(fired, 10);
  EXPECT_DOUBLE_EQ(reg.value("sim.events.scheduled"), 11.0);
  EXPECT_DOUBLE_EQ(reg.value("sim.events.dispatched"),
                   static_cast<double>(sim.dispatched_events()));
  EXPECT_DOUBLE_EQ(reg.value("sim.events.cancelled"), 1.0);
  EXPECT_DOUBLE_EQ(reg.value("sim.queue.depth"),
                   static_cast<double>(sim.pending_events()));
}

}  // namespace
}  // namespace p2plab::metrics
