// P2PLab: the experimentation platform.
//
// A Platform materializes an experiment: it builds the physical cluster
// (hosts + switch), folds the topology's virtual nodes onto the physical
// nodes, configures each node's IP aliases, compiles the decentralized
// IPFW/Dummynet rule set (two pipe rules per hosted virtual node plus one
// rule per inter-group latency pair — the Figure 7 recipe), and exposes
// per-virtual-node process environments and socket APIs for the studied
// application. A ping probe reproduces the paper's latency measurements.
//
// The platform runs on the parallel engine (src/engine): physical nodes
// are split across PlatformConfig::shards shards in contiguous capacity
// blocks (the first P % K shards own one pnode more) — one Simulation +
// Network + SocketManager per shard, driven by worker threads under
// conservative synchronization. The layout is invisible to results: a
// K-shard run is bit-identical to the 1-shard run (see engine/engine.hpp
// and DESIGN.md §9).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "engine/engine.hpp"
#include "ipfw/pipe.hpp"
#include "metrics/health.hpp"
#include "metrics/recorder.hpp"
#include "net/network.hpp"
#include "profile/profiler.hpp"
#include "sim/simulation.hpp"
#include "sockets/socket.hpp"
#include "topology/topology.hpp"
#include "vnode/vnode.hpp"

namespace p2plab::core {

struct PlatformConfig {
  /// Number of physical nodes; virtual nodes are folded onto them in
  /// contiguous blocks (ceil(N/P) per node, like the paper's deployments).
  std::size_t physical_nodes = 1;
  net::HostConfig host;
  /// The stream sockets' congestion regime (DESIGN.md §13).
  sockets::TransportModel transport = sockets::TransportModel::kFlow;
  std::uint64_t seed = 1;
  /// Parallel engine shard count (>= 1). Clamped to physical_nodes (a
  /// shard owns whole physical nodes).
  std::size_t shards = 1;
  /// Pin each shard worker to one online CPU. Unset = automatic: pin when
  /// the process affinity mask holds at least as many cores as shards (a
  /// degraded box gains nothing from pinning everything to one core).
  std::optional<bool> pin_workers;
};

class Platform {
 public:
  Platform(const topology::Topology& topo, PlatformConfig config);
  ~Platform();

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  const topology::Topology& topology() const { return topo_; }
  const PlatformConfig& config() const { return config_; }
  Rng& rng() { return rng_; }

  std::size_t vnode_count() const { return vnodes_.size(); }
  std::size_t physical_node_count() const { return host_by_pnode_.size(); }

  vnode::VirtualNode& vnode(std::size_t i) { return *vnodes_.at(i); }
  vnode::Process& process(std::size_t i) { return *processes_.at(i); }
  sockets::SocketApi& api(std::size_t i) { return *apis_.at(i); }
  net::Host& host_of_vnode(std::size_t i) { return vnodes_.at(i)->host(); }
  /// Physical node p. Its state belongs to its shard: touch it between
  /// runs, or from events scheduled on that shard.
  net::Host& host(std::size_t p) { return *host_by_pnode_.at(p); }
  /// Physical node index hosting virtual node i.
  std::size_t pnode_of_vnode(std::size_t i) const;

  /// Virtual nodes folded onto each physical node (ceil(N/P)).
  std::size_t folding_ratio() const;

  // -- parallel engine -----------------------------------------------------

  /// Worker threads driving the platform.
  std::size_t shard_count() const { return shards_.size(); }
  /// Shard owning physical node p.
  std::size_t shard_of_pnode(std::size_t p) const {
    return shard_of_pnode_.at(p);
  }

  /// The simulation that owns vnode i's state. Application code must
  /// schedule a vnode's events here so they execute on the owning shard's
  /// thread.
  sim::Simulation& sim_of_vnode(std::size_t i) {
    return shard_of_vnode_.at(i)->sim;
  }
  /// The registry a vnode's application metrics must bind to: its shard's
  /// single-writer registry, folded into the bind_metrics() registry after
  /// every run() and at every health sample.
  metrics::Registry& registry_of_vnode(std::size_t i) {
    return shard_of_vnode_.at(i)->registry;
  }

  /// Platform-wide clock: identical on every shard at every stop.
  SimTime now() const;
  std::uint64_t dispatched_events() const;
  std::size_t pending_events() const;

  enum class RunResult {
    kDrained,    // no pending events anywhere
    kPredicate,  // the stop predicate returned true
    kDeadline,   // simulated time reached `deadline`
  };
  /// Run until `deadline`, the predicate (evaluated every `check_interval`
  /// of simulated time) returns true, or the event queues drain. The only
  /// way to advance the platform.
  RunResult run(SimTime deadline, std::function<bool()> stop_predicate = {},
                Duration check_interval = Duration::sec(5));

  /// Start `monitor` against the bind_metrics() registry. run() then
  /// samples it under the BSP barrier whenever a period boundary has
  /// passed, after folding the shard registries so tracked columns are
  /// current. The monitor schedules no events: drain-style runs still
  /// drain.
  void attach_monitor(metrics::HealthMonitor& monitor);
  /// Take the monitor's final sample and detach it.
  void detach_monitor();

  // -- vnode lifecycle (fault injection) ----------------------------------
  //
  // A crash models `kill -9` of the studied process plus the loss of its
  // network identity: every socket bound at the vnode's address is aborted
  // (timers cancelled, nothing sent — the dead process cannot say goodbye)
  // and the address is withdrawn from routing. Remote peers discover the
  // loss via RST once the address returns, or retransmit-timeout
  // exhaustion while it is gone. rejoin_vnode restores routing; the
  // application layer re-starts its process on top.
  //
  // These touch only the owning shard's state: call them from events
  // scheduled on sim_of_vnode(i) (the fault injector does).

  bool vnode_online(std::size_t i) const { return vnode_online_.at(i) != 0; }
  void crash_vnode(std::size_t i);
  void rejoin_vnode(std::size_t i);

  // -- link faults --------------------------------------------------------
  //
  // All helpers act on the vnode's two access pipes (both directions).
  // Fault windows compose and each one undoes only itself: the emulated
  // link always runs the topology's base parameters plus the windows
  // still open.

  /// Flap the access link (administratively down: arriving segments
  /// drop). Each `true` opens a window and each `false` closes one; the
  /// link is back up when the last open window closes.
  void set_link_down(std::size_t i, bool down);
  /// Add `extra` one-way latency on top of the current latency; a window
  /// closes by adding its negation, so overlapping spikes sum.
  void add_link_latency(std::size_t i, Duration extra);
  /// Override the link's Gilbert-Elliott bursty loss until
  /// close_burst_loss(i, window) with the returned window. The newest
  /// open override applies; with none open, the topology's own model does.
  std::uint64_t open_burst_loss(std::size_t i, const ipfw::GilbertElliott& ge);
  void close_burst_loss(std::size_t i, std::uint64_t window);
  bool link_down(std::size_t i) const;

  /// The Dummynet pipes emulating vnode i's access link.
  struct AccessPipes {
    std::size_t pnode = 0;
    ipfw::PipeId up = ipfw::kNoPipe;
    ipfw::PipeId down = ipfw::kNoPipe;
  };
  const AccessPipes& access_pipes(std::size_t i) const {
    return access_pipes_.at(i);
  }

  /// Ping from vnode `src` to vnode `dst`: a `size`-byte UDP datagram
  /// (header included) through the socket API and the full emulated path
  /// to an echo socket on `dst`, and back. Call it between runs; it runs
  /// the platform until the echo returns and yields the round-trip time,
  /// or nullopt if the probe was lost.
  std::optional<Duration> ping(std::size_t src, std::size_t dst,
                               DataSize size = DataSize::bytes(64));

  /// Total IPFW rules installed across all physical nodes (diagnostics).
  std::size_t total_rules() const;

  /// Bind the whole platform's instrumentation to `reg`: each shard's
  /// subsystems bind to a private registry, folded into `reg` after every
  /// run() (Registry::fold_shards).
  void bind_metrics(metrics::Registry& reg);

  // -- tracing ------------------------------------------------------------

  /// Activate flight recording: one complete log per shard (workers
  /// activate their own — recording never crosses threads).
  void enable_tracing();
  bool tracing() const;
  /// All recorded events rendered to JSONL lines in canonical order —
  /// sorted by (timestamp, line bytes), which is shard-count independent.
  std::vector<std::string> trace_lines() const;
  /// Write trace_lines() to $P2PLAB_RESULTS_DIR/<filename>; false if the
  /// env var is unset, tracing is off, or any write fails.
  bool flush_trace_to_results(const char* filename = "trace.jsonl") const;

  // -- wall-clock profiling (profile/profiler.hpp) ------------------------

  /// Activate the BSP profiler: one phase-sample ring per shard worker plus
  /// a coordinator ring. Wall-clock only — virtual time and event order
  /// stay bit-identical with profiling on or off.
  void enable_profiling(std::size_t ring_capacity = 1 << 15);
  bool profiling() const { return profiler_ != nullptr; }
  /// Valid after enable_profiling().
  profile::Profiler& profiler() { return *profiler_; }
  const profile::Profiler& profiler() const { return *profiler_; }
  /// CPU each worker was pinned to on the last run (-1 = unpinned; one
  /// entry per shard).
  std::vector<int> worker_cpus() const;
  /// Write the Perfetto timeline to $P2PLAB_RESULTS_DIR/<filename>; false
  /// if profiling is off, the env var is unset or the write fails.
  bool flush_profile_to_results(const char* filename = "profile.json") const;

 private:
  /// One engine shard: a private simulation, network (hosts, firewalls),
  /// socket manager and metrics registry, driven by one worker thread.
  struct Shard {
    sim::Simulation sim;
    std::unique_ptr<net::Network> network;
    std::unique_ptr<sockets::SocketManager> sockets;
    metrics::Registry registry;
    std::unique_ptr<metrics::FlightRecorder> recorder;
  };

  void build_cluster();
  void deploy_vnodes();
  void compile_rules();
  /// Vnode i's access-pipe configuration at `bandwidth` (its up or down
  /// rate): the topology's link class plus the open fault windows.
  ipfw::PipeConfig access_pipe_config(std::size_t i,
                                      Bandwidth bandwidth) const;
  void apply_link_config(std::size_t i);
  net::Network& network_of_pnode(std::size_t p);
  sockets::SocketManager& sockets_of_pnode(std::size_t p);
  void merge_shard_metrics();
  metrics::HealthProbe health_probe() const;

  /// Per-vnode link-fault overlay on top of the topology's base pipe
  /// configuration: the open windows of each kind.
  struct LinkFaults {
    int down_depth = 0;
    Duration extra_latency = Duration::zero();
    /// Open burst-loss overrides by window; the newest (last) applies.
    std::map<std::uint64_t, ipfw::GilbertElliott> bursts;
    std::uint64_t next_burst_window = 0;
  };

  topology::Topology topo_;
  PlatformConfig config_;
  Rng rng_;
  std::unique_ptr<profile::Profiler> profiler_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<engine::Engine> engine_;
  /// pnode -> shard table: contiguous capacity blocks, built once by the
  /// constructor.
  std::vector<std::size_t> shard_of_pnode_;
  /// vnode -> owning shard, built at deploy time: sim_of_vnode() sits on
  /// the application's per-send and per-timer path.
  std::vector<Shard*> shard_of_vnode_;
  std::vector<net::Host*> host_by_pnode_;
  metrics::Registry* master_reg_ = nullptr;
  metrics::HealthMonitor* monitor_ = nullptr;
  std::vector<std::unique_ptr<vnode::VirtualNode>> vnodes_;
  std::vector<std::unique_ptr<vnode::Process>> processes_;
  std::vector<std::unique_ptr<sockets::SocketApi>> apis_;
  std::vector<AccessPipes> access_pipes_;
  std::vector<LinkFaults> link_faults_;
  /// uint8_t, not bool: vector<bool> packs bits, and adjacent vnodes can
  /// live on different shards — independent bytes keep writes race-free.
  std::vector<std::uint8_t> vnode_online_;
};

}  // namespace p2plab::core
