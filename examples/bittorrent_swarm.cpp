// A complete BitTorrent experiment, scaled down from the paper's Figure 8:
// a 4 MiB torrent seeded by 2 initial seeders, downloaded by 24 clients on
// DSL access links, folded onto 4 emulated physical machines.
//
//   $ ./examples/bittorrent_swarm
//
// Prints the per-client completion table and a coarse ASCII progress chart
// (the same data the figure harnesses dump as CSV).
#include <algorithm>
#include <cstdio>

#include "bittorrent/swarm.hpp"

using namespace p2plab;

int main() {
  bt::SwarmConfig config;
  config.file_size = DataSize::mib(4);
  config.seeders = 2;
  config.clients = 24;
  config.start_interval = Duration::sec(10);

  core::PlatformConfig platform_config;
  platform_config.physical_nodes = 4;
  core::Platform platform(
      topology::homogeneous_dsl(bt::swarm_vnodes(config)), platform_config);

  bt::Swarm swarm(platform, config);
  std::printf("torrent %016llx: %s in %u pieces\n",
              static_cast<unsigned long long>(swarm.metainfo().info_hash),
              swarm.metainfo().total_size.to_string().c_str(),
              swarm.metainfo().piece_count());
  std::printf("%zu clients + %zu seeders + tracker on %zu machines "
              "(%zu vnodes each)\n\n",
              config.clients, config.seeders,
              platform.physical_node_count(), platform.folding_ratio());

  swarm.run();

  std::printf("client  start(s)  done(s)  downloaded  uploaded  dup-blocks\n");
  for (std::size_t i = 0; i < swarm.client_count(); ++i) {
    const bt::Client& client = swarm.client(i);
    std::printf("%6zu  %8.0f  %7.0f  %10s  %8s  %10llu\n", i,
                static_cast<double>(i) *
                    config.start_interval.to_seconds(),
                client.has_completed()
                    ? client.completion_time().to_seconds()
                    : -1.0,
                DataSize::bytes(client.stats().bytes_down).to_string().c_str(),
                DataSize::bytes(client.stats().bytes_up).to_string().c_str(),
                static_cast<unsigned long long>(
                    client.stats().duplicate_blocks));
  }

  // ASCII swarm progress: one row per 60 s, '#' per 10% average progress.
  const SimTime end = platform.now();
  std::printf("\nswarm average progress over time:\n");
  for (SimTime t = SimTime::zero(); t <= end; t += Duration::sec(60)) {
    double total = 0.0;
    for (std::size_t i = 0; i < swarm.client_count(); ++i) {
      total += swarm.client(i).progress().value_at(t);
    }
    const double avg = total / static_cast<double>(swarm.client_count());
    std::printf("t=%5.0fs |", t.to_seconds());
    for (int bar = 0; bar < static_cast<int>(avg / 2.5); ++bar) {
      std::fputc('#', stdout);
    }
    std::printf(" %.0f%%\n", avg);
  }

  const auto times = swarm.completion_times_sec();
  const auto [min_it, max_it] =
      std::minmax_element(times.begin(), times.end());
  std::printf("\nall %zu clients done between %.0f s and %.0f s "
              "(simulated); tracker served %llu announces\n",
              times.size(), *min_it, *max_it,
              static_cast<unsigned long long>(
                  swarm.tracker().announces_served()));
  return 0;
}
