// Ablation: where folding breaks down.
//
// The paper found "the first limiting factor was the network speed: with
// other (slightly faster) emulated network settings, the platform's
// Gigabit network was saturated by the downloads". This ablation makes the
// mechanism visible: the same swarm on fast emulated links (20 Mb/s down /
// 10 Mb/s up) is run unfolded and heavily folded onto hosts with a
// deliberately small (200 Mb/s) NIC; once the aggregate emulated bandwidth
// exceeds NIC capacity, the folded run diverges — completion times stretch
// and the NIC shows drops.
#include <algorithm>
#include <cstdio>

#include "bench_env.hpp"
#include "bittorrent/swarm.hpp"
#include "metrics/stats.hpp"
#include "metrics/trace.hpp"

using namespace p2plab;

namespace {

constexpr std::size_t kClients = 64;

struct Outcome {
  double median_completion_s = 0;
  double last_completion_s = 0;
  std::uint64_t nic_drops = 0;
};

Outcome run(std::size_t pnodes, Bandwidth nic) {
  bt::SwarmConfig config;
  config.clients = kClients;
  config.file_size = DataSize::mib(8);
  config.start_interval = Duration::millis(500);
  // A "ten-times-faster DSL" than the paper's: aggregate upload demand of
  // the folded deployment (~32 vnodes x 1.28 Mb/s per host, half of it
  // crossing the fabric each way) exceeds the constrained NIC below.
  topology::LinkClass fast{.down = Bandwidth::mbps(20),
                           .up = Bandwidth::bps(1280000),
                           .latency = Duration::ms(10)};
  core::PlatformConfig platform_config;
  platform_config.physical_nodes = pnodes;
  platform_config.host.nic_bandwidth = nic;
  core::Platform platform(
      topology::homogeneous_dsl(bt::swarm_vnodes(config), fast),
      platform_config);
  bt::Swarm swarm(platform, config);
  swarm.run();

  Outcome outcome;
  metrics::Distribution times;
  for (double t : swarm.completion_times_sec()) times.add(t);
  if (!times.empty()) {
    outcome.median_completion_s = times.median();
    outcome.last_completion_s = times.max();
  }
  for (std::size_t p = 0; p < platform.physical_node_count(); ++p) {
    outcome.nic_drops += platform.host(p).nic_tx().stats().dropped +
                         platform.host(p).nic_rx().stats().dropped;
  }
  return outcome;
}

}  // namespace

int main() {
  bench::banner("Ablation",
                "NIC saturation under folding with fast emulated links");
  metrics::CsvWriter csv("abl_nic_saturation",
                         {"deployment", "median_completion_s",
                          "last_completion_s", "nic_drops"});
  csv.comment("seed=" + std::to_string(bt::SwarmConfig{}.content_seed));

  // Unfolded on constrained NICs: one vnode per machine never stresses a
  // 25 Mb/s NIC — the emulation is transparent.
  const Outcome spread = run(67, Bandwidth::mbps(25));
  csv.row({"unfolded_25m_nic", std::to_string(spread.median_completion_s),
           std::to_string(spread.last_completion_s),
           std::to_string(spread.nic_drops)});

  // Folded ~33:1 onto NICs with half the swarm's cross-fabric demand:
  // drops appear and completions stretch — the emulation is no longer
  // transparent.
  const Outcome folded = run(2, Bandwidth::mbps(12));
  csv.row({"folded_12m_nic", std::to_string(folded.median_completion_s),
           std::to_string(folded.last_completion_s),
           std::to_string(folded.nic_drops)});

  // Same folding with an ample NIC: transparency restored.
  const Outcome big_nic = run(2, Bandwidth::gbps(1));
  csv.row({"folded_1g_nic", std::to_string(big_nic.median_completion_s),
           std::to_string(big_nic.last_completion_s),
           std::to_string(big_nic.nic_drops)});

  std::printf("# paper: folding is free until aggregate emulated bandwidth "
              "meets the physical NIC; then the platform, not the "
              "application, shapes the results\n");
  return 0;
}
