// Regression: a FaultPlan latency spike against a transferring socket must
// not poison the RTT estimator into a retransmission storm.
//
// The hazard: when the spike lands, the RTO fires once (the old estimate
// honestly undershoots the new path). Karn's algorithm then refuses RTT
// samples from retransmitted segments — so a naive estimator never learns
// the new RTT, keeps the stale small RTO, and every window times out again:
// a storm of spurious retransmissions for the whole spike window, ending in
// abort once consecutive timeouts exhaust. The fix (sockets/socket.cpp):
// acked progress resets the consecutive-timeout counter, and when every
// acked segment was retransmitted the time since its *first* transmission
// upper-bounds the RTT and may raise (never lower) the estimate.
#include <gtest/gtest.h>

#include "core/platform.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"
#include "metrics/registry.hpp"
#include "topology/topology.hpp"

namespace p2plab::fault {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

SimTime at_sec(double s) { return SimTime::zero() + Duration::seconds(s); }

class KarnSpikeTest : public ::testing::TestWithParam<sockets::TransportModel> {
 protected:
  /// Run a 40 x 16 KiB transfer 0 -> 1 over the paper's DSL links (128 kb/s
  /// up: ~1 s serialization per block) with a latency spike of `extra` on
  /// the receiver's access pipes for `window`, under the given transport.
  /// Returns the number of blocks delivered.
  int run_transfer(Duration extra, Duration window) {
    core::PlatformConfig pc;
    pc.physical_nodes = 1;
    pc.seed = 7;
    pc.pin_workers = false;
    pc.transport = GetParam();
    platform = std::make_unique<core::Platform>(topology::homogeneous_dsl(2),
                                                pc);
    platform->bind_metrics(registry);

    FaultPlan plan;
    plan.latency_spike(1, at_sec(5), extra, window);
    FaultInjector injector(*platform, plan);
    injector.arm();

    int received = 0;
    auto& sim1 = platform->sim_of_vnode(1);
    sim1.schedule_at(at_sec(0.1), [this, &received, &sim1] {
      listener = platform->api(1).listen(
          6881, [&received](sockets::StreamSocketPtr s) {
            s->on_message([&received](sockets::Message&&) { ++received; });
          });
    });
    const Ipv4Addr remote = platform->api(1).effective_bind_address();
    platform->sim_of_vnode(0).schedule_at(at_sec(0.2), [this, remote] {
      platform->api(0).connect(remote, 6881, [](sockets::StreamSocketPtr s) {
        for (int i = 0; i < 40; ++i) {
          sockets::Message m;
          m.type = 9;
          m.size = DataSize::kib(16);
          s->send(m);
        }
      });
    });
    const auto result = platform->run(
        at_sec(400), [&received] { return received >= 40; },
        Duration::sec(1));
    EXPECT_NE(result, core::Platform::RunResult::kDeadline);
    finished_at = platform->now();
    return received;
  }

  std::unique_ptr<core::Platform> platform;
  metrics::Registry registry;
  sockets::ListenerPtr listener;
  SimTime finished_at;
};

TEST_P(KarnSpikeTest, LatencySpikeDoesNotCauseRetransmissionStorm) {
  // +2 s on both receiver pipes for 30 s: RTT jumps by ~4 s, far past any
  // estimate the 30 ms path could have produced.
  const int received = run_transfer(Duration::sec(2), Duration::sec(30));
  EXPECT_EQ(received, 40);
  EXPECT_EQ(registry.value("sockets.aborts"), 0.0);
  // One honest RTO when the spike lands (plus NewReno cleanup under kTcp)
  // is fine; a storm re-sends most of the 40 blocks. The estimator must
  // adapt within a handful of retransmissions.
  EXPECT_LE(registry.value("sockets.retransmits"), 8.0)
      << "RTT estimator failed to adapt to the spiked path";
  // The transfer is ~41 s of serialization; the spike shifts delivery by
  // seconds, not by a storm's worth of duplicate wire time.
  EXPECT_LT((finished_at - SimTime::zero()).to_seconds(), 70.0);
}

TEST_P(KarnSpikeTest, CleanPathStaysRetransmitFree) {
  // Control: same transfer, zero-width spike window — nothing may fire.
  const int received = run_transfer(Duration::zero(), Duration::zero());
  EXPECT_EQ(received, 40);
  EXPECT_EQ(registry.value("sockets.retransmits"), 0.0);
  EXPECT_EQ(registry.value("sockets.aborts"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, KarnSpikeTest,
    ::testing::Values(sockets::TransportModel::kFlow,
                      sockets::TransportModel::kTcp),
    [](const ::testing::TestParamInfo<sockets::TransportModel>& param_info) {
      return std::string(
          param_info.param == sockets::TransportModel::kTcp ? "Tcp" : "Flow");
    });

}  // namespace
}  // namespace p2plab::fault
