// Swarm experiment driver: the paper's BitTorrent evaluation setup.
//
// Builds a torrent, places one tracker, a few initial seeders and N
// downloading clients on a P2PLab platform, starts the clients at a fixed
// interval ("the clients are started with a 10 s interval" / "every
// 0.25 s"), runs the simulation, and collects what the paper plots:
// per-client progress curves (Figs 8, 10), cumulative bytes (Fig 9) and
// the completion-count-over-time series (Fig 11).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "bittorrent/client.hpp"
#include "bittorrent/tracker.hpp"
#include "core/platform.hpp"
#include "metrics/timeseries.hpp"

namespace p2plab::bt {

struct SwarmConfig {
  DataSize file_size = DataSize::mib(16);
  std::size_t seeders = 4;
  std::size_t clients = 160;
  Duration start_interval = Duration::sec(10);
  std::uint64_t content_seed = 42;
  /// Simulation cutoff (safety net; experiments normally end on their own).
  Duration max_duration = Duration::sec(20000);
};

/// Total virtual nodes this swarm needs: tracker + seeders + clients.
inline std::size_t swarm_vnodes(const SwarmConfig& config) {
  return 1 + config.seeders + config.clients;
}

class Swarm {
 public:
  /// The platform must provide at least swarm_vnodes(config) vnodes.
  /// vnode 0 hosts the tracker, vnodes 1..seeders the seeders, the rest
  /// the downloading clients.
  Swarm(core::Platform& platform, SwarmConfig config);

  /// Run until every client completed (or max_duration).
  void run();
  /// Run until the given simulated time only.
  void run_until(SimTime deadline);

  const MetaInfo& metainfo() const { return meta_; }
  Tracker& tracker() { return *tracker_; }
  std::size_t client_count() const { return clients_.size(); }
  Client& client(std::size_t i) { return *clients_.at(i); }
  Client& seeder(std::size_t i) { return *seeders_.at(i); }

  std::size_t completed_count() const;
  bool all_complete() const { return completed_count() == clients_.size(); }

  /// Bind platform + every client (seeders included) to `reg`.
  void bind_metrics(metrics::Registry& reg);

  /// Completion times of the clients that finished, in client order.
  std::vector<double> completion_times_sec() const;
  /// The Figure 11 series: (t, #clients complete) steps.
  metrics::TimeSeries completion_curve() const;
  /// The Figure 9 series: total bytes received by all clients on a grid.
  std::vector<double> total_bytes_curve(Duration step, SimTime end) const;

 private:
  core::Platform* platform_;
  SwarmConfig config_;
  MetaInfo meta_;
  std::unique_ptr<Tracker> tracker_;
  std::vector<std::unique_ptr<Client>> seeders_;
  std::vector<std::unique_ptr<Client>> clients_;
};

}  // namespace p2plab::bt
