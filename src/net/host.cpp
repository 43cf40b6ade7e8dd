#include "net/host.hpp"

#include <algorithm>
#include <utility>

#include "net/network.hpp"

namespace p2plab::net {
namespace {

/// GridExplorer's Dual-Opteron nodes.
constexpr std::int64_t kCpus = 2;

}  // namespace

Host::Host(Network& network, std::string name, Ipv4Addr admin_ip,
           HostConfig config, Rng rng, std::size_t global_index)
    : network_(network),
      name_(std::move(name)),
      admin_ip_(admin_ip),
      global_index_(global_index),
      firewall_(network.sim(), config.firewall, rng.fork(1)),
      nic_tx_(config.nic_bandwidth, kNicLatency, kNicQueue),
      nic_rx_(config.nic_bandwidth, kNicLatency, kNicQueue),
      cpu_busy_until_(SimTime::zero()) {
  network_.register_address(admin_ip_, this);
}

void Host::add_alias(Ipv4Addr addr) {
  aliases_.push_back(addr);
  network_.register_address(addr, this);
}

Duration Host::charge_cpu(Duration work) {
  if (work <= Duration::zero()) return Duration::zero();
  const SimTime now = network_.sim().now();
  // Aggregate-server model: capacity drains at kCpus, but each unit of
  // work executes serially on one core, so the caller's latency is the
  // queueing delay plus the *full* work time (a 2.5 ms rule scan delays
  // the packet by 2.5 ms even on a dual CPU).
  const SimTime start = std::max(cpu_busy_until_, now);
  const Duration service =
      Duration::ns(work.count_ns() / kCpus +
                   (work.count_ns() % kCpus != 0 ? 1 : 0));
  cpu_busy_until_ = start + service;
  cpu_consumed_ += work;
  // Host is a friend of Network; the shared counter aggregates CPU work
  // across all hosts.
  network_.metrics_.cpu_charged_ns.inc(
      static_cast<std::uint64_t>(work.count_ns()));
  return (start - now) + work;
}

double Host::cpu_utilization() const {
  const SimTime now = network_.sim().now();
  if (now == SimTime::zero()) return 0.0;
  const double capacity =
      now.to_seconds() * static_cast<double>(kCpus);
  return cpu_consumed_.to_seconds() / capacity;
}

}  // namespace p2plab::net
