#include "bittorrent/swarm.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace p2plab::bt {

Swarm::Swarm(core::Platform& platform, SwarmConfig config)
    : platform_(&platform),
      config_(config),
      meta_(MetaInfo::make_synthetic(config.file_size, config.content_seed)) {
  P2PLAB_ASSERT_MSG(platform.vnode_count() >= swarm_vnodes(config),
                    "platform too small for this swarm");
  Rng rng = platform.rng().fork(0xb17700);

  // vnode 0: tracker.
  tracker_ = std::make_unique<Tracker>(platform.api(0), rng.fork(1));
  tracker_->start();
  const PeerInfo tracker_info{platform.vnode(0).ip(), tracker_->port()};

  // vnodes 1..seeders: initial seeders, online from t=0. Each client runs
  // on the simulation of its vnode's shard.
  for (std::size_t s = 0; s < config_.seeders; ++s) {
    const std::size_t v = 1 + s;
    seeders_.push_back(std::make_unique<Client>(
        platform.sim_of_vnode(v), platform.api(v), meta_, tracker_info,
        /*start_as_seed=*/true, rng.fork(100 + v)));
    seeders_.back()->start();
  }

  // Remaining vnodes: downloading clients, started start_interval apart.
  for (std::size_t c = 0; c < config_.clients; ++c) {
    const std::size_t v = 1 + config_.seeders + c;
    clients_.push_back(std::make_unique<Client>(
        platform.sim_of_vnode(v), platform.api(v), meta_, tracker_info,
        /*start_as_seed=*/false, rng.fork(1000 + v)));
    Client* client = clients_.back().get();
    // A fault plan may crash (or crash-and-rejoin) this vnode before the
    // staggered start fires: skip the start if the node is offline or the
    // rejoin hook already started the client.
    core::Platform* plat = &platform;
    platform.sim_of_vnode(v).schedule_at(
        SimTime::zero() +
            config_.start_interval * static_cast<std::int64_t>(c),
        [client, plat, v] {
          if (!client->started() && plat->vnode_online(v)) client->start();
        });
  }
}

void Swarm::bind_metrics(metrics::Registry& reg) {
  platform_->bind_metrics(reg);
  // Clients bind to their vnode's registry: the owning shard's
  // single-writer registry, merged into `reg` at the end of every
  // Platform::run.
  for (std::size_t s = 0; s < seeders_.size(); ++s) {
    seeders_[s]->bind_metrics(platform_->registry_of_vnode(1 + s));
  }
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    clients_[c]->bind_metrics(
        platform_->registry_of_vnode(1 + config_.seeders + c));
  }
}

void Swarm::run() {
  // Completion is checked every 5 s of simulated time: per event it would
  // cost an O(clients) scan on every one of the ~10^8 events of a
  // full-scale run.
  const SimTime cutoff = SimTime::zero() + config_.max_duration;
  platform_->run(cutoff, [this] { return all_complete(); }, Duration::sec(5));
  if (!all_complete()) {
    P2PLAB_LOG_WARN("swarm run ended with %zu/%zu clients complete",
                    completed_count(), clients_.size());
  }
}

void Swarm::run_until(SimTime deadline) { platform_->run(deadline); }

std::size_t Swarm::completed_count() const {
  std::size_t count = 0;
  for (const auto& client : clients_) count += client->has_completed();
  return count;
}

std::vector<double> Swarm::completion_times_sec() const {
  std::vector<double> times;
  times.reserve(clients_.size());
  for (const auto& client : clients_) {
    if (client->has_completed()) {
      times.push_back(client->completion_time().to_seconds());
    }
  }
  return times;
}

metrics::TimeSeries Swarm::completion_curve() const {
  std::vector<double> times = completion_times_sec();
  std::sort(times.begin(), times.end());
  metrics::TimeSeries curve("clients_complete");
  for (std::size_t i = 0; i < times.size(); ++i) {
    curve.add(SimTime::zero() + Duration::seconds(times[i]),
              static_cast<double>(i + 1));
  }
  return curve;
}

std::vector<double> Swarm::total_bytes_curve(Duration step,
                                             SimTime end) const {
  std::vector<const metrics::TimeSeries*> series;
  series.reserve(clients_.size());
  for (const auto& client : clients_) {
    series.push_back(&client->bytes_down_series());
  }
  return metrics::sum_resampled(series, step, end);
}

}  // namespace p2plab::bt
