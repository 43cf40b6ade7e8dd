// A physical node of the experimental platform.
//
// Models one GridExplorer machine: a Gigabit NIC (one shaped pipe per
// direction), a per-host IPFW firewall with Dummynet pipes (P2PLab's
// decentralized emulation), IP aliases for the hosted virtual nodes
// (Figure 4), and a coarse CPU model that charges per-packet processing
// and firewall rule-scan time. CPU charging matters for the folding study:
// it is one of the overhead sources the paper monitored ("system load,
// memory usage, disk I/O") and found unproblematic at 80 vnodes/node.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/ipv4.hpp"
#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "ipfw/firewall.hpp"
#include "net/link_server.hpp"
#include "sim/simulation.hpp"

namespace p2plab::net {

class Network;

/// The NIC's fixed per-hop latency and tail-drop queue, both directions.
inline constexpr Duration kNicLatency = Duration::us(20);
inline constexpr DataSize kNicQueue = DataSize::kib(512);
/// CPU work to process one packet through the stack (send or receive).
inline constexpr Duration kPacketCpuCost = Duration::us(10);

struct HostConfig {
  Bandwidth nic_bandwidth = Bandwidth::gbps(1);
  ipfw::FirewallConfig firewall;
};

class Host {
 public:
  Host(Network& network, std::string name, Ipv4Addr admin_ip,
       HostConfig config, Rng rng, std::size_t global_index);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  const std::string& name() const { return name_; }
  Ipv4Addr admin_ip() const { return admin_ip_; }

  /// Platform-wide host index, stable across shard partitionings: the
  /// parallel engine keys rng streams, connection ids and cross-shard
  /// merge order on it so a K-shard run replays the K=1 event sequence.
  std::size_t global_index() const { return global_index_; }

  /// Host-scoped connection id: the host index in the high bits keeps ids
  /// unique platform-wide without any cross-shard counter. Uniqueness is
  /// load-bearing beyond determinism — conn ids seed both the RST
  /// stale-connection check and the DRR flow identity inside shared pipes.
  std::uint64_t next_conn_id() {
    return ((static_cast<std::uint64_t>(global_index_) + 1) << 32) |
           ++conn_seq_;
  }

  /// Per-source-host sequence for cross-shard packets; with the timestamp
  /// and host index it forms the engine's total merge order.
  std::uint64_t next_fabric_seq() { return ++fabric_seq_; }

  ipfw::Firewall& firewall() { return firewall_; }
  const ipfw::Firewall& firewall() const { return firewall_; }

  /// Assign an additional IP to this host's interface (ifconfig alias) and
  /// register it with the network. This is how virtual nodes get their
  /// network identity.
  void add_alias(Ipv4Addr addr);
  const std::vector<Ipv4Addr>& aliases() const { return aliases_; }

  /// Charge `work` of CPU time; returns the latency until it completes
  /// (queueing behind earlier work plus service). The host's CPUs are
  /// modeled as one server of aggregate speed kCpus — coarse, but enough
  /// to expose CPU saturation under extreme folding.
  Duration charge_cpu(Duration work);

  /// Fraction of CPU time consumed so far (diagnostic).
  double cpu_utilization() const;

  LinkServer& nic_tx() { return nic_tx_; }
  LinkServer& nic_rx() { return nic_rx_; }

 private:
  Network& network_;
  std::string name_;
  Ipv4Addr admin_ip_;
  std::size_t global_index_;
  ipfw::Firewall firewall_;
  LinkServer nic_tx_;
  LinkServer nic_rx_;
  std::vector<Ipv4Addr> aliases_;
  SimTime cpu_busy_until_;
  Duration cpu_consumed_ = Duration::zero();
  std::uint64_t conn_seq_ = 0;
  std::uint64_t fabric_seq_ = 0;
};

}  // namespace p2plab::net
