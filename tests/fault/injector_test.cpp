// FaultInjector: platform-level fault execution, hook ordering, trace
// pairing (every fault_injected has a matching fault_recovered), and
// bit-identical replay of a plan under the same seed.
#include "fault/injector.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/platform.hpp"
#include "fault/plan.hpp"
#include "metrics/registry.hpp"
#include "sim/inline_callback.hpp"

namespace p2plab::fault {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

SimTime at_sec(double s) { return SimTime::zero() + Duration::seconds(s); }

class InjectorTest : public ::testing::Test {
 protected:
  InjectorTest()
      : platform(topology::homogeneous_dsl(6),
                 core::PlatformConfig{.physical_nodes = 2,
                                      .pin_workers = false}) {}

  void run_until(double sec) { platform.run(at_sec(sec)); }

  ipfw::Pipe& up_pipe(std::size_t vnode) {
    return platform.host_of_vnode(vnode).firewall().pipe(
        platform.access_pipes(vnode).up);
  }
  ipfw::Pipe& down_pipe(std::size_t vnode) {
    return platform.host_of_vnode(vnode).firewall().pipe(
        platform.access_pipes(vnode).down);
  }

  core::Platform platform;
  std::vector<std::string> hook_log;
};

TEST_F(InjectorTest, CrashWithRejoinDrivesHooksAndPairsRecovery) {
  FaultPlan plan;
  plan.crash_and_rejoin(2, at_sec(10), Duration::sec(30));
  FaultInjector injector(platform, plan);
  injector.set_node_hooks(NodeHooks{
      .on_crash = [&](std::size_t v) {
        hook_log.push_back("crash:" + std::to_string(v));
      },
      .on_leave = nullptr,
      .on_rejoin = [&](std::size_t v) {
        hook_log.push_back("rejoin:" + std::to_string(v));
      }});
  injector.arm();

  run_until(5);
  EXPECT_TRUE(platform.vnode_online(2));
  EXPECT_EQ(injector.stats().injected, 0u);

  run_until(15);
  EXPECT_FALSE(platform.vnode_online(2));
  EXPECT_EQ(injector.stats().injected, 1u);
  EXPECT_EQ(injector.stats().unrecovered(), 1u);

  run_until(50);
  EXPECT_TRUE(platform.vnode_online(2));
  EXPECT_EQ(injector.stats().recovered, 1u);
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
  EXPECT_EQ(hook_log,
            (std::vector<std::string>{"crash:2", "rejoin:2"}));
}

TEST_F(InjectorTest, PermanentCrashRecoversAtTeardown) {
  // "Recovered" means the emulator reached the intended post-fault state;
  // for a permanent departure that is the completed teardown itself.
  FaultPlan plan;
  plan.crash(3, at_sec(10));
  FaultInjector injector(platform, plan);
  injector.arm();
  run_until(20);
  EXPECT_FALSE(platform.vnode_online(3));
  EXPECT_EQ(injector.stats().injected, 1u);
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
  run_until(100);
  EXPECT_FALSE(platform.vnode_online(3));  // never comes back
}

TEST_F(InjectorTest, LeaveGivesGraceBeforeDetaching) {
  FaultPlan plan;
  plan.leave(1, at_sec(10));
  FaultInjector injector(platform, plan);
  injector.set_node_hooks(NodeHooks{
      .on_crash = nullptr,
      .on_leave = [&](std::size_t v) {
        // The process says goodbye while its address still works.
        EXPECT_TRUE(platform.vnode_online(v));
        hook_log.push_back("leave:" + std::to_string(v));
      },
      .on_rejoin = nullptr});
  injector.arm();
  const double grace_s = kLeaveGrace.to_seconds();
  run_until(10 + 0.9 * grace_s);
  EXPECT_EQ(hook_log, (std::vector<std::string>{"leave:1"}));
  EXPECT_TRUE(platform.vnode_online(1));  // grace period
  EXPECT_EQ(injector.stats().unrecovered(), 1u);
  run_until(10 + 1.1 * grace_s);
  EXPECT_FALSE(platform.vnode_online(1));
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
}

TEST_F(InjectorTest, LinkDownWindowSetsAndRestoresBothPipes) {
  FaultPlan plan;
  plan.link_down(2, at_sec(10), Duration::sec(5));
  FaultInjector injector(platform, plan);
  injector.arm();
  run_until(5);
  EXPECT_FALSE(up_pipe(2).is_down());
  EXPECT_FALSE(down_pipe(2).is_down());
  run_until(12);
  EXPECT_TRUE(up_pipe(2).is_down());
  EXPECT_TRUE(down_pipe(2).is_down());
  EXPECT_TRUE(platform.link_down(2));
  run_until(16);
  EXPECT_FALSE(up_pipe(2).is_down());
  EXPECT_FALSE(down_pipe(2).is_down());
  EXPECT_EQ(injector.stats().recovered, 1u);
}

TEST_F(InjectorTest, LatencySpikeAddsDelayThenRestoresBaseline) {
  const Duration base = up_pipe(4).config().delay;
  FaultPlan plan;
  plan.latency_spike(4, at_sec(10), Duration::ms(200), Duration::sec(5));
  FaultInjector injector(platform, plan);
  injector.arm();
  run_until(12);
  EXPECT_EQ(up_pipe(4).config().delay, base + Duration::ms(200));
  EXPECT_EQ(down_pipe(4).config().delay, base + Duration::ms(200));
  run_until(16);
  EXPECT_EQ(up_pipe(4).config().delay, base);
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
}

TEST_F(InjectorTest, BurstLossOverrideIsWindowed) {
  ASSERT_FALSE(up_pipe(5).config().burst_loss.enabled());  // dsl default
  FaultPlan plan;
  plan.burst_loss(5, at_sec(10), Duration::sec(5),
                  ipfw::GilbertElliott{.p_good_to_bad = 0.1,
                                       .p_bad_to_good = 0.4,
                                       .loss_bad = 0.8});
  FaultInjector injector(platform, plan);
  injector.arm();
  run_until(12);
  EXPECT_TRUE(up_pipe(5).config().burst_loss.enabled());
  EXPECT_DOUBLE_EQ(up_pipe(5).config().burst_loss.p_good_to_bad, 0.1);
  EXPECT_TRUE(down_pipe(5).config().burst_loss.enabled());
  run_until(16);
  EXPECT_FALSE(up_pipe(5).config().burst_loss.enabled());
  EXPECT_EQ(injector.stats().recovered, 1u);
}

TEST_F(InjectorTest, OverlappingTrackerOutagesRefcount) {
  FaultPlan plan;
  plan.tracker_outage(at_sec(10), Duration::sec(20));  // [10, 30)
  plan.tracker_outage(at_sec(15), Duration::sec(20));  // [15, 35)
  std::size_t outages = 0, restores = 0;
  FaultInjector injector(platform, plan);
  injector.set_service_hooks(ServiceHooks{
      .on_tracker_outage = [&] { ++outages; },
      .on_tracker_restore = [&] { ++restores; }});
  injector.arm();
  run_until(20);
  EXPECT_EQ(outages, 1u);  // second window does not re-kill the tracker
  EXPECT_EQ(restores, 0u);
  run_until(32);
  EXPECT_EQ(restores, 0u);  // first window closed, second still open
  run_until(40);
  EXPECT_EQ(restores, 1u);
  EXPECT_EQ(injector.stats().injected, 2u);
  EXPECT_EQ(injector.stats().recovered, 2u);
}

TEST_F(InjectorTest, OverlappingLinkDownsKeepTheLinkDown) {
  FaultPlan plan;
  plan.link_down(2, at_sec(10), Duration::sec(10));  // [10, 20)
  plan.link_down(2, at_sec(15), Duration::sec(10));  // [15, 25)
  FaultInjector injector(platform, plan);
  injector.arm();
  run_until(17);
  EXPECT_TRUE(platform.link_down(2));
  run_until(22);  // first window closed, second still open
  EXPECT_TRUE(up_pipe(2).is_down());
  EXPECT_TRUE(down_pipe(2).is_down());
  run_until(27);
  EXPECT_FALSE(up_pipe(2).is_down());
  EXPECT_FALSE(down_pipe(2).is_down());
  EXPECT_EQ(injector.stats().recovered, 2u);
}

TEST_F(InjectorTest, OverlappingLatencySpikesSum) {
  const Duration base = up_pipe(4).config().delay;
  FaultPlan plan;
  plan.latency_spike(4, at_sec(10), Duration::ms(200), Duration::sec(10));
  plan.latency_spike(4, at_sec(15), Duration::ms(100), Duration::sec(10));
  FaultInjector injector(platform, plan);
  injector.arm();
  run_until(12);
  EXPECT_EQ(up_pipe(4).config().delay, base + Duration::ms(200));
  run_until(17);
  EXPECT_EQ(up_pipe(4).config().delay, base + Duration::ms(300));
  EXPECT_EQ(down_pipe(4).config().delay, base + Duration::ms(300));
  run_until(22);  // the 200 ms spike closed; the 100 ms one is still open
  EXPECT_EQ(up_pipe(4).config().delay, base + Duration::ms(100));
  EXPECT_EQ(down_pipe(4).config().delay, base + Duration::ms(100));
  run_until(27);
  EXPECT_EQ(up_pipe(4).config().delay, base);
  EXPECT_EQ(down_pipe(4).config().delay, base);
}

TEST_F(InjectorTest, OverlappingBurstLossKeepsNewestOpenOverride) {
  const auto ge = [](double p_good_to_bad) {
    return ipfw::GilbertElliott{.p_good_to_bad = p_good_to_bad,
                                .p_bad_to_good = 0.4,
                                .loss_bad = 0.8};
  };
  FaultPlan plan;
  // Vnode 5: a window nested in a longer one. Vnode 3: the older window
  // closes first.
  plan.burst_loss(5, at_sec(10), Duration::sec(20), ge(0.1));  // [10, 30)
  plan.burst_loss(5, at_sec(15), Duration::sec(10), ge(0.2));  // [15, 25)
  plan.burst_loss(3, at_sec(10), Duration::sec(10), ge(0.1));  // [10, 20)
  plan.burst_loss(3, at_sec(15), Duration::sec(10), ge(0.2));  // [15, 25)
  FaultInjector injector(platform, plan);
  injector.arm();
  run_until(17);
  EXPECT_DOUBLE_EQ(up_pipe(5).config().burst_loss.p_good_to_bad, 0.2);
  EXPECT_DOUBLE_EQ(up_pipe(3).config().burst_loss.p_good_to_bad, 0.2);
  run_until(22);
  EXPECT_DOUBLE_EQ(up_pipe(5).config().burst_loss.p_good_to_bad, 0.2);
  EXPECT_DOUBLE_EQ(up_pipe(3).config().burst_loss.p_good_to_bad, 0.2);
  EXPECT_DOUBLE_EQ(down_pipe(3).config().burst_loss.p_good_to_bad, 0.2);
  run_until(27);  // vnode 5's outer window is open again on its own
  EXPECT_DOUBLE_EQ(up_pipe(5).config().burst_loss.p_good_to_bad, 0.1);
  EXPECT_DOUBLE_EQ(down_pipe(5).config().burst_loss.p_good_to_bad, 0.1);
  EXPECT_FALSE(up_pipe(3).config().burst_loss.enabled());
  run_until(32);
  EXPECT_FALSE(up_pipe(5).config().burst_loss.enabled());
  EXPECT_FALSE(down_pipe(5).config().burst_loss.enabled());
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
}

TEST_F(InjectorTest, ClosuresFitInline) {
  // One fault of each kind: every arm and recovery closure must fit
  // InlineCallback's inline budget, or each fault costs a heap box.
  FaultPlan plan;
  plan.crash(1, at_sec(1))
      .crash_and_rejoin(2, at_sec(1), Duration::sec(5))
      .leave(3, at_sec(1))
      .link_down(4, at_sec(1), Duration::sec(5))
      .latency_spike(5, at_sec(1), Duration::millis(40), Duration::sec(5))
      .burst_loss(4, at_sec(2), Duration::sec(5),
                  ipfw::GilbertElliott{.p_good_to_bad = 0.1,
                                       .p_bad_to_good = 0.4,
                                       .loss_bad = 0.8})
      .tracker_outage(at_sec(1), Duration::sec(5));
  FaultInjector injector(platform, plan);
  const std::uint64_t boxed_before = sim::InlineCallback::heap_fallbacks();
  injector.arm();
  run_until(20);
  EXPECT_EQ(injector.stats().injected, 7u);
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
  EXPECT_EQ(sim::InlineCallback::heap_fallbacks(), boxed_before);
}

TEST_F(InjectorTest, BindsMetricsRegistry) {
  metrics::Registry registry;
  FaultPlan plan;
  plan.crash_and_rejoin(2, at_sec(10), Duration::sec(5))
      .link_down(3, at_sec(12), Duration::sec(5));
  FaultInjector injector(platform, plan);
  injector.bind_metrics(registry);
  injector.arm();
  run_until(13);
  EXPECT_EQ(registry.value("fault.injected"), 2.0);
  EXPECT_EQ(registry.value("fault.active"), 2.0);
  run_until(30);
  EXPECT_EQ(registry.value("fault.recovered"), 2.0);
  EXPECT_EQ(registry.value("fault.active"), 0.0);
}

/// Run a mixed plan against a fresh platform and return the full trace,
/// one JSONL line per event in the platform's canonical order.
std::string trace_of_run() {
  core::Platform platform(topology::homogeneous_dsl(6),
                          core::PlatformConfig{.physical_nodes = 2,
                                               .pin_workers = false});
  platform.enable_tracing();
  FaultPlan plan;
  plan.crash_and_rejoin(2, at_sec(10), Duration::sec(20))
      .crash(3, at_sec(12))
      .link_down(4, at_sec(15), Duration::sec(5))
      .tracker_outage(at_sec(20), Duration::sec(10));
  FaultInjector injector(platform, plan);
  injector.arm();
  platform.run(at_sec(60));
  std::string out;
  for (const std::string& line : platform.trace_lines()) out += line + "\n";
  return out;
}

TEST(InjectorTrace, SamePlanSameSeedYieldsBitIdenticalTrace) {
  const std::string a = trace_of_run();
  const std::string b = trace_of_run();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
  // Pairing invariant, as CI checks it: equal numbers of injected and
  // recovered events.
  auto count = [&](std::string_view needle) {
    std::size_t hits = 0, pos = 0;
    while ((pos = a.find(needle, pos)) != std::string::npos) {
      ++hits;
      pos += needle.size();
    }
    return hits;
  };
  EXPECT_EQ(count("\"fault_injected\""), 4u);
  EXPECT_EQ(count("\"fault_recovered\""), 4u);
}

}  // namespace
}  // namespace p2plab::fault
