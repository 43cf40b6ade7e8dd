// Swarm integration tests: full BitTorrent downloads over the emulated
// platform, at small scale so they stay fast in CI.
#include "bittorrent/swarm.hpp"

#include <gtest/gtest.h>

namespace p2plab::bt {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

SwarmConfig small_swarm(std::size_t clients) {
  SwarmConfig config;
  config.file_size = DataSize::mib(1);
  config.seeders = 1;
  config.clients = clients;
  config.start_interval = Duration::sec(2);
  config.max_duration = Duration::sec(4000);
  return config;
}

core::PlatformConfig fast_platform(std::size_t pnodes) {
  return core::PlatformConfig{.physical_nodes = pnodes, .pin_workers = false};
}

TEST(Swarm, SmallSwarmCompletesWithVerification) {
  SwarmConfig config = small_swarm(6);
  core::Platform platform(
      topology::homogeneous_dsl(swarm_vnodes(config)), fast_platform(3));
  Swarm swarm(platform, config);
  swarm.run();
  EXPECT_TRUE(swarm.all_complete());
  for (std::size_t i = 0; i < swarm.client_count(); ++i) {
    EXPECT_TRUE(swarm.client(i).complete());
    // Downloaded bytes = file size plus wasted duplicates (choke churn and
    // endgame); the waste must stay a small fraction of the file.
    const auto& stats = swarm.client(i).stats();
    EXPECT_GE(stats.bytes_down, DataSize::mib(1).count_bytes());
    EXPECT_LT(static_cast<double>(stats.bytes_down),
              1.25 * static_cast<double>(DataSize::mib(1).count_bytes()));
  }
}

TEST(Swarm, CompletionTimesAreOrderedSanely) {
  SwarmConfig config = small_swarm(6);
  core::Platform platform(
      topology::homogeneous_dsl(swarm_vnodes(config)), fast_platform(3));
  Swarm swarm(platform, config);
  swarm.run();
  const auto times = swarm.completion_times_sec();
  ASSERT_EQ(times.size(), 6u);
  for (double t : times) {
    // 1 MiB = 8 Mbit at 2 Mb/s down is >= 4 s even unconstrained;
    // upload-constrained swarms take much longer but must finish within
    // the cutoff.
    EXPECT_GT(t, 4.0);
    EXPECT_LT(t, 4000.0);
  }
}

TEST(Swarm, SeedersUploadLeechersDownload) {
  SwarmConfig config = small_swarm(4);
  core::Platform platform(
      topology::homogeneous_dsl(swarm_vnodes(config)), fast_platform(2));
  Swarm swarm(platform, config);
  swarm.run();
  EXPECT_GT(swarm.seeder(0).stats().bytes_up, 0u);
  EXPECT_EQ(swarm.seeder(0).stats().bytes_down, 0u);
  // Conservation: everything downloaded was uploaded by someone. Upload
  // counters may run slightly ahead (blocks still in flight when the last
  // client finishes and the run stops).
  std::uint64_t up = swarm.seeder(0).stats().bytes_up;
  std::uint64_t down = 0;
  for (std::size_t i = 0; i < swarm.client_count(); ++i) {
    up += swarm.client(i).stats().bytes_up;
    down += swarm.client(i).stats().bytes_down;
  }
  EXPECT_GE(up, down);
  EXPECT_LT(static_cast<double>(up - down), 0.05 * static_cast<double>(down));
}

TEST(Swarm, PeersShareWithEachOtherNotJustTheSeed) {
  // Tit-for-tat: with several leechers, peer-to-peer traffic must appear
  // (the seed's upload alone cannot account for all bytes).
  SwarmConfig config = small_swarm(6);
  core::Platform platform(
      topology::homogeneous_dsl(swarm_vnodes(config)), fast_platform(3));
  Swarm swarm(platform, config);
  swarm.run();
  std::uint64_t peer_up = 0;
  for (std::size_t i = 0; i < swarm.client_count(); ++i) {
    peer_up += swarm.client(i).stats().bytes_up;
  }
  EXPECT_GT(peer_up, DataSize::mib(1).count_bytes());
}

TEST(Swarm, DeterministicForSameSeed) {
  auto run_once = [] {
    SwarmConfig config = small_swarm(5);
    core::PlatformConfig pc = fast_platform(2);
    pc.seed = 99;
    core::Platform platform(
        topology::homogeneous_dsl(swarm_vnodes(config)), pc);
    Swarm swarm(platform, config);
    swarm.run();
    return swarm.completion_times_sec();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Swarm, FoldingDoesNotChangeOutcomes) {
  // The Figure 9 claim in miniature: the same swarm folded 1:1 vs 8:1
  // produces nearly identical aggregate results.
  auto run_with = [](std::size_t pnodes) {
    SwarmConfig config = small_swarm(7);  // 9 vnodes with tracker+seed
    core::Platform platform(
        topology::homogeneous_dsl(swarm_vnodes(config)),
        fast_platform(pnodes));
    Swarm swarm(platform, config);
    swarm.run();
    double total = 0;
    for (double t : swarm.completion_times_sec()) total += t;
    return total / 7.0;
  };
  const double spread_out = run_with(9);
  const double folded = run_with(1);
  EXPECT_NEAR(folded, spread_out, 0.15 * spread_out);
}

TEST(Swarm, CompletionCurveIsMonotone) {
  SwarmConfig config = small_swarm(5);
  core::Platform platform(
      topology::homogeneous_dsl(swarm_vnodes(config)), fast_platform(2));
  Swarm swarm(platform, config);
  swarm.run();
  const auto curve = swarm.completion_curve();
  ASSERT_EQ(curve.size(), 5u);
  EXPECT_DOUBLE_EQ(curve.points().back().second, 5.0);
}

TEST(Swarm, TotalBytesCurveReachesFullVolume) {
  SwarmConfig config = small_swarm(4);
  core::Platform platform(
      topology::homogeneous_dsl(swarm_vnodes(config)), fast_platform(2));
  Swarm swarm(platform, config);
  swarm.run();
  // Round the grid end up so the final sample reflects full completion.
  const SimTime end = platform.now() + Duration::sec(10);
  const auto curve = swarm.total_bytes_curve(Duration::sec(10), end);
  ASSERT_FALSE(curve.empty());
  // All 4 clients fetched the full 1 MiB.
  EXPECT_DOUBLE_EQ(curve.back(),
                   4.0 * static_cast<double>(DataSize::mib(1).count_bytes()));
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i], curve[i - 1]);
  }
}

TEST(Swarm, LateClientsStillFinish) {
  // Clients starting long after the first wave join a swarm of seeds.
  SwarmConfig config = small_swarm(4);
  config.start_interval = Duration::sec(120);
  core::Platform platform(
      topology::homogeneous_dsl(swarm_vnodes(config)), fast_platform(2));
  Swarm swarm(platform, config);
  swarm.run();
  EXPECT_TRUE(swarm.all_complete());
}

TEST(Swarm, SurvivesLossyAccessLinks) {
  SwarmConfig config = small_swarm(3);
  auto link = topology::dsl_2m();
  link.loss_rate = 0.01;  // 1% loss on every access link
  core::Platform platform(
      topology::homogeneous_dsl(swarm_vnodes(config), link),
      fast_platform(2));
  Swarm swarm(platform, config);
  swarm.run();
  EXPECT_TRUE(swarm.all_complete());
}

}  // namespace
}  // namespace p2plab::bt
