// The emulated network: hosts joined by a non-blocking switch.
//
// Network::send walks a packet through the emulated path:
//
//   source host:   firewall scan (CPU) -> matched Dummynet pipes (their
//                  fixed delays deferred into the packet)
//   fabric:        NIC tx -> switch latency, folded into one arrival stamp
//                  handed to the FabricHandoff
//   dest host:     NIC rx -> firewall scan (CPU) -> matched Dummynet pipes
//                  -> socket demux
//
// Packets between two virtual nodes folded onto the same physical host
// skip the fabric but still traverse both firewalls — exactly like
// FreeBSD, where loopback traffic passes IPFW, and essential for the
// folding-ratio result (Figure 9): co-located peers must still see their
// emulated access links.
//
// The switch is pure latency: GridExplorer's Gigabit switch is
// non-blocking, so per-port bandwidth is already enforced at the NICs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ipv4.hpp"
#include "common/rng.hpp"
#include "metrics/registry.hpp"
#include "net/host.hpp"
#include "net/packet.hpp"
#include "net/packet_pool.hpp"
#include "sim/simulation.hpp"

namespace p2plab::net {

/// The switch's per-hop latency (pure latency: see the header comment).
inline constexpr Duration kSwitchLatency = Duration::us(30);

/// Registry handles for the "net.*" metrics — the network's only counters.
/// packets_dropped_fw counts deny rules; packets_dropped_pipe pipe loss,
/// queue overflow and NIC tail drops; packets_unroutable addresses no host
/// owns. The NIC byte counters are the per-link load view (fabric hops
/// only — loopback between co-located vnodes never touches a NIC, which is
/// the folding win being measured).
struct NetMetrics {
  metrics::Counter packets_sent;
  metrics::Counter packets_delivered;
  metrics::Counter packets_dropped_fw;
  metrics::Counter packets_dropped_pipe;
  metrics::Counter packets_unroutable;
  metrics::Counter bytes_sent;
  metrics::Counter bytes_delivered;
  metrics::Counter nic_tx_bytes;
  metrics::Counter nic_rx_bytes;
  metrics::Counter cpu_charged_ns;  // host CPU work (stack + rule scans)
  // Packet-cell recycling lives in PacketPool ("net.pool.*").
};

/// Cross-shard packet transport, implemented by the parallel engine
/// (src/engine). Every inter-host packet — same shard or not — leaves
/// through push() with a precomputed arrival stamp (the instant the packet
/// exits the switch toward the destination NIC), and re-enters the
/// destination shard's Network via fabric_arrive(). Routing all inter-host
/// traffic through the same code path is what makes a K-shard run
/// bit-identical to the 1-shard run.
class FabricHandoff {
 public:
  virtual ~FabricHandoff() = default;
  /// Hand a packet to the destination shard. `src_shard` is the pushing
  /// network's shard (set_fabric_handoff); `src_host` / `seq` establish
  /// the deterministic merge order (stamp, src_host, seq). Returns false
  /// if no shard ever deployed `packet.dst` (the address is unknown to the
  /// whole platform, not merely withdrawn).
  virtual bool push(std::size_t src_shard, std::size_t src_host,
                    std::uint64_t seq, SimTime stamp, Packet packet) = 0;
};

class Network {
 public:
  Network(sim::Simulation& sim, Rng rng);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  sim::Simulation& sim() { return sim_; }

  static constexpr std::size_t kAutoIndex = static_cast<std::size_t>(-1);

  /// Create a physical host. The admin address is registered immediately
  /// (the paper keeps "the main IP address of each physical system ... for
  /// administration purposes"). `global_index` is the platform-wide host
  /// index (see Host::global_index); it defaults to this network's local
  /// count, which is the right value whenever one Network spans the whole
  /// platform (a 1-shard run, and every bare Network in tests and benches).
  Host& add_host(std::string name, Ipv4Addr admin_ip, HostConfig config = {},
                 std::size_t global_index = kAutoIndex);

  size_t host_count() const { return hosts_.size(); }
  Host& host(size_t index) { return *hosts_.at(index); }

  /// The host owning `addr` (admin address or alias); nullptr if none.
  Host* host_of(Ipv4Addr addr);

  /// Withdraw an address from routing (vnode crash / graceful departure):
  /// packets to it become unroutable and packets from it are dropped at the
  /// source, until reattach_address restores it. Returns false if the
  /// address was not registered.
  bool detach_address(Ipv4Addr addr);
  /// Restore a previously detached alias of `host` (vnode rejoin).
  void reattach_address(Ipv4Addr addr, Host& host);

  /// Send a packet through the emulated path. It is delivered through the
  /// socket demux at the destination; dropped packets vanish (transports
  /// recover via timeout, exactly like the real platform).
  void send(Packet packet);

  // -- parallel-engine hooks ----------------------------------------------

  /// Hand every inter-host packet to `handoff` at its arrival stamp. The
  /// source-side pipes defer their fixed delays into the packet
  /// (Pipe::Segment::defer_delay) and the NIC-tx/switch hop is folded into
  /// the stamp; the destination side reserves its NIC-rx and runs the
  /// inbound firewall on arrival. Without a handoff (a bare Network) the
  /// packet takes the same walk: fabric_arrive is scheduled at the same
  /// stamp on this network's own simulation. `shard` is this network's
  /// index in the handoff, passed back on every push.
  void set_fabric_handoff(FabricHandoff* handoff, std::size_t shard = 0) {
    handoff_ = handoff;
    handoff_shard_ = shard;
  }

  /// Destination entry point for handed-off packets; the engine schedules
  /// this at the packet's stamp on the owning shard's simulation, acquiring
  /// the ref from this (the destination) shard's pool at merge time.
  void fabric_arrive(PacketRef packet);

  /// This shard's packet-cell pool. The engine acquires from the
  /// *destination* network's pool when re-materializing a handed-off
  /// packet; cells never cross pools.
  PacketPool& pool() { return pool_; }

  /// Deliver every packet through this callback (installed by the shard's
  /// SocketManager; per-shard, so delivery resolves against
  /// destination-shard state only and never touches another shard's port
  /// table).
  void set_socket_demux(std::function<void(Packet&&)> demux);

  /// Resolve "net.*" handles from `reg` and bind the firewall of every
  /// host, present and future ("ipfw.*" aggregates across hosts).
  void bind_metrics(metrics::Registry& reg);

 private:
  friend class Host;
  void register_address(Ipv4Addr addr, Host* host);

  /// What comes after the current host's pipe walk. Carried by value
  /// through the walk's continuation instead of a boxed `done` closure —
  /// one byte of state replaces a std::function that the old code also
  /// re-copied at every pipe stage.
  enum class PathStage : std::uint8_t {
    kSource,    // source pipes defer their delays; ends in handoff_exit
    kLoopback,  // both endpoints on this host: ends in local arrival
    kDest,      // destination side: ends in deliver
  };

  void leave_source(PacketRef packet, Host& src, PathStage stage);
  void handoff_exit(PacketRef packet, Host& src);
  void arrive_at_destination(PacketRef packet, Host& dst);
  void deliver(PacketRef packet);

  /// Run the packet through `pipes` of `host`'s firewall in order, then
  /// finish_path(stage).
  void pass_pipes(PacketRef packet, Host& host, ipfw::PipeList pipes,
                  std::uint32_t index, PathStage stage);
  void finish_path(PacketRef packet, Host& host, PathStage stage);

  sim::Simulation& sim_;
  Rng rng_;
  NetMetrics metrics_;
  // Declared before hosts_: pipes hold queued segments whose closures own
  // PacketRefs, so hosts_ (destroyed first, reverse declaration order)
  // drains its refs into a still-live pool.
  PacketPool pool_;
  metrics::Registry* bound_reg_ = nullptr;  // for hosts added after binding
  FabricHandoff* handoff_ = nullptr;
  std::size_t handoff_shard_ = 0;
  std::function<void(Packet&&)> socket_demux_;
  std::vector<std::unique_ptr<Host>> hosts_;
  std::unordered_map<std::uint32_t, Host*> by_address_;
};

}  // namespace p2plab::net
