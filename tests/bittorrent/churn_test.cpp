// Graceful degradation under faults: tracker-outage announce backoff,
// cached-peer survival, and peer-crash request re-queueing.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "bittorrent/swarm.hpp"
#include "fault/injector.hpp"
#include "fault/plan.hpp"

namespace p2plab::bt {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

SimTime at_sec(double s) { return SimTime::zero() + Duration::seconds(s); }

SwarmConfig small_swarm(std::size_t clients) {
  SwarmConfig config;
  config.file_size = DataSize::mib(1);
  config.seeders = 1;
  config.clients = clients;
  config.start_interval = Duration::sec(2);
  config.max_duration = Duration::sec(4000);
  return config;
}

TEST(AnnounceBackoff, GrowsExponentiallyWithJitterAndCaps) {
  // One client, tracker address with nothing listening: every announce is
  // refused, so the failure streak climbs and backoff() must follow
  // min(base * 2^(streak-1), cap): 5 s doubling up to the 300 s cap.
  core::Platform platform(topology::homogeneous_dsl(2),
                          core::PlatformConfig{.physical_nodes = 1,
                                               .pin_workers = false});
  const MetaInfo meta =
      MetaInfo::make_synthetic(DataSize::kib(256), /*content_seed=*/1);
  ASSERT_EQ(kAnnounceRetryBase, Duration::sec(5));
  ASSERT_EQ(kAnnounceRetryCap, Duration::sec(300));
  Client client(platform.sim_of_vnode(1), platform.api(1), meta,
                PeerInfo{platform.vnode(0).ip(), 6969},
                /*start_as_seed=*/false, platform.rng().fork(1));
  client.start();

  std::vector<double> backoffs_sec;
  std::uint64_t seen_failures = 0;
  // Retries land at least 0.75 * 5 s apart, so 500 ms steps see each one.
  while (backoffs_sec.size() < 8 && platform.now() < at_sec(1200)) {
    platform.run(platform.now() + Duration::ms(500));
    if (client.stats().announce_failures > seen_failures) {
      seen_failures = client.stats().announce_failures;
      backoffs_sec.push_back(client.announce_backoff().to_seconds());
    }
  }
  client.stop();
  ASSERT_EQ(backoffs_sec.size(), 8u);
  const std::vector<double> expected{5, 10, 20, 40, 80, 160, 300, 300};
  EXPECT_EQ(backoffs_sec, expected);  // exponential, then capped
  // Retries actually fired (with jitter the spacing varies, but each
  // failure past the first was produced by a scheduled retry).
  EXPECT_GE(client.stats().announce_retries, 7u);
}

TEST(AnnounceBackoff, RetryDelayIsJittered) {
  // Two clients with different RNG streams facing the same dead tracker
  // must retry at different instants (jitter desynchronizes the herd), and
  // the same stream must replay identically.
  auto failure_times = [](std::uint64_t stream) {
    core::Platform platform(topology::homogeneous_dsl(2),
                            core::PlatformConfig{.physical_nodes = 1,
                                                 .pin_workers = false});
    const MetaInfo meta = MetaInfo::make_synthetic(DataSize::kib(256), 1);
    Client client(platform.sim_of_vnode(1), platform.api(1), meta,
                  PeerInfo{platform.vnode(0).ip(), 6969},
                  /*start_as_seed=*/false, platform.rng().fork(stream));
    client.start();
    std::vector<double> times;
    std::uint64_t seen = 0;
    while (times.size() < 4 && platform.now() < at_sec(300)) {
      platform.run(platform.now() + Duration::ms(50));
      if (client.stats().announce_failures > seen) {
        seen = client.stats().announce_failures;
        times.push_back(platform.now().to_seconds());
      }
    }
    client.stop();
    return times;
  };
  const auto a = failure_times(1);
  const auto b = failure_times(2);
  ASSERT_EQ(a.size(), 4u);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_NE(a, b);                   // different jitter draws
  EXPECT_EQ(a, failure_times(1));    // deterministic replay
}

TEST(TrackerOutage, SwarmFinishesOnCachedPeersThroughFullOutage) {
  // Let the swarm form, then kill the tracker for good: every further
  // announce fails, but clients keep trading with connected and cached
  // peers and the download still completes.
  SwarmConfig config = small_swarm(6);
  core::Platform platform(topology::homogeneous_dsl(swarm_vnodes(config)),
                          core::PlatformConfig{.physical_nodes = 3,
                                               .pin_workers = false});
  Swarm swarm(platform, config);
  // The tracker lives on vnode 0; its state changes on that vnode's shard.
  platform.sim_of_vnode(0).schedule_at(
      at_sec(30), [&] { swarm.tracker().set_online(false); });
  swarm.run();
  EXPECT_TRUE(swarm.all_complete());
  std::uint64_t failures = 0;
  for (std::size_t c = 0; c < swarm.client_count(); ++c) {
    failures += swarm.client(c).stats().announce_failures;
  }
  EXPECT_GT(failures, 0u);  // the outage was actually felt
}

TEST(TrackerOutage, TemporaryOutageWindowViaInjector) {
  SwarmConfig config = small_swarm(6);
  core::Platform platform(topology::homogeneous_dsl(swarm_vnodes(config)),
                          core::PlatformConfig{.physical_nodes = 3,
                                               .pin_workers = false});
  Swarm swarm(platform, config);
  fault::FaultPlan plan;
  plan.tracker_outage(at_sec(10), Duration::sec(60));
  fault::FaultInjector injector(platform, plan);
  injector.set_service_hooks(fault::ServiceHooks{
      .on_tracker_outage = [&] { swarm.tracker().set_online(false); },
      .on_tracker_restore = [&] { swarm.tracker().set_online(true); }});
  injector.arm();
  swarm.run();
  EXPECT_TRUE(swarm.all_complete());
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
  EXPECT_TRUE(swarm.tracker().online());
}

TEST(PeerCrash, SurvivorsRequeueAndComplete) {
  // Crash a third of the swarm mid-download (no rejoin). Surviving
  // leechers must re-enter the pieces they had inflight to dead peers and
  // still finish; nothing may wedge the event queue afterwards.
  SwarmConfig config = small_swarm(9);
  core::Platform platform(topology::homogeneous_dsl(swarm_vnodes(config)),
                          core::PlatformConfig{.physical_nodes = 3,
                                               .pin_workers = false});
  Swarm swarm(platform, config);
  const std::size_t first_client_vnode = 1 + config.seeders;

  fault::FaultPlan plan;
  const std::vector<std::size_t> victims{0, 3, 7};  // client indices
  for (std::size_t i = 0; i < victims.size(); ++i) {
    plan.crash(first_client_vnode + victims[i],
               at_sec(20.0 + 5.0 * static_cast<double>(i)));
  }
  fault::FaultInjector injector(platform, plan);
  injector.set_node_hooks(fault::NodeHooks{
      .on_crash = [&](std::size_t v) {
        swarm.client(v - first_client_vnode).crash();
      },
      .on_leave = nullptr,
      .on_rejoin = nullptr});
  injector.arm();

  auto is_victim = [&](std::size_t c) {
    return std::find(victims.begin(), victims.end(), c) != victims.end();
  };
  const SimTime cutoff = SimTime::zero() + config.max_duration;
  auto survivors_done = [&] {
    for (std::size_t c = 0; c < config.clients; ++c) {
      if (!is_victim(c) && !swarm.client(c).has_completed()) return false;
    }
    return true;
  };
  platform.run(cutoff, survivors_done, Duration::sec(5));
  EXPECT_TRUE(survivors_done());
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
  for (const std::size_t c : victims) {
    EXPECT_FALSE(swarm.client(c).complete());
  }

  // No wedged timers: stop everything and the queue must drain.
  for (std::size_t c = 0; c < config.clients; ++c) {
    if (!is_victim(c)) swarm.client(c).stop();
  }
  swarm.seeder(0).stop();
  swarm.tracker().set_online(false);
  EXPECT_EQ(platform.run(platform.now() + Duration::sec(600)),
            core::Platform::RunResult::kDrained);
  EXPECT_EQ(platform.pending_events(), 0u);
}

TEST(PeerCrash, CrashAndRejoinResumesDownload) {
  SwarmConfig config = small_swarm(6);
  core::Platform platform(topology::homogeneous_dsl(swarm_vnodes(config)),
                          core::PlatformConfig{.physical_nodes = 3,
                                               .pin_workers = false});
  Swarm swarm(platform, config);
  const std::size_t first_client_vnode = 1 + config.seeders;
  const std::size_t victim = 2;

  fault::FaultPlan plan;
  plan.crash_and_rejoin(first_client_vnode + victim, at_sec(25),
                        Duration::sec(40));
  fault::FaultInjector injector(platform, plan);
  injector.set_node_hooks(fault::NodeHooks{
      .on_crash = [&](std::size_t v) {
        swarm.client(v - first_client_vnode).crash();
      },
      .on_leave = nullptr,
      .on_rejoin = [&](std::size_t v) {
        swarm.client(v - first_client_vnode).start();
      }});
  injector.arm();
  swarm.run();
  // The victim resumed from its surviving store and finished too.
  EXPECT_TRUE(swarm.all_complete());
  EXPECT_EQ(injector.stats().unrecovered(), 0u);
}

}  // namespace
}  // namespace p2plab::bt
