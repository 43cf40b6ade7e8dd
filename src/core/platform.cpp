#include "core/platform.hpp"

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "metrics/trace.hpp"

namespace p2plab::core {
namespace {

/// Administration network: the paper uses 192.168.38.0/24; a /16 keeps
/// scalability runs from being capped at 254 hosts.
const CidrBlock kAdminSubnet{Ipv4Addr::from_octets(192, 168, 0, 0), 16};

/// Queue bound for the per-vnode access pipes. Deliberately larger than
/// Dummynet's 50-slot default: under the default kFlow transport there is
/// no congestion control, so the pipe queue provides the backlog that TCP
/// self-clocking would (DESIGN.md §6), bounded per flow by the transport
/// send window. Under kTcp the congestion window keeps the queue short on
/// its own; the generous bound is then just headroom and never the
/// regulating mechanism (DESIGN.md §13).
constexpr DataSize kAccessPipeQueue = DataSize::mib(8);

}  // namespace

Platform::Platform(const topology::Topology& topo, PlatformConfig config)
    : topo_(topo), config_(config), rng_(config.seed) {
  P2PLAB_ASSERT(config_.physical_nodes >= 1);
  P2PLAB_ASSERT(topo_.total_nodes() >= 1);
  P2PLAB_ASSERT_MSG(config_.shards >= 1, "the engine needs at least 1 shard");
  // One Simulation/Network/SocketManager per shard. Every shard's network
  // forks the *same* rng stream — hosts then fork host streams keyed on
  // their global index, so randomness is identical under any partition.
  const std::size_t k = std::min(config_.shards, config_.physical_nodes);
  engine_ = std::make_unique<engine::Engine>(topo_.min_access_latency() +
                                             net::kSwitchLatency);
  const int online = profile::Profiler::online_cores();
  if (k > 1 && online < static_cast<int>(k)) {
    std::fprintf(stderr,
                 "[p2plab] WARNING: %d online core(s) for %zu shards — "
                 "worker threads will time-slice, so wall-clock numbers "
                 "from this run are NOT a parallel-scaling datapoint "
                 "(degraded_parallelism)\n",
                 online, k);
  }
  // Pin by default only when every worker can own a core (the engine
  // spins at its barrier under the same condition).
  engine_->set_pin_workers(
      config_.pin_workers.value_or(online >= static_cast<int>(k)));
  // Contiguous capacity blocks: shard s owns the next P/K pnodes, and the
  // first P % K shards one more. Traffic locality is no input: every
  // inter-host packet is handed off, on the same shard or not (DESIGN.md
  // §15).
  shard_of_pnode_.reserve(config_.physical_nodes);
  for (std::size_t s = 0; s < k; ++s) {
    const std::size_t size = config_.physical_nodes / k +
                             (s < config_.physical_nodes % k ? 1 : 0);
    shard_of_pnode_.insert(shard_of_pnode_.end(), size, s);
  }
  for (std::size_t s = 0; s < k; ++s) {
    auto shard = std::make_unique<Shard>();
    shard->network = std::make_unique<net::Network>(shard->sim, rng_.fork(1));
    shard->sockets = std::make_unique<sockets::SocketManager>(
        *shard->network, config_.transport);
    engine_->add_shard(shard->sim, *shard->network);
    shards_.push_back(std::move(shard));
  }
  build_cluster();
  deploy_vnodes();
  compile_rules();
  P2PLAB_LOG_INFO(
      "platform up: %zu vnodes on %zu pnodes (%zu per node), %zu rules, "
      "%zu shard(s)",
      vnode_count(), physical_node_count(), folding_ratio(), total_rules(),
      shard_count());
}

Platform::~Platform() {
  // Deactivate tracing installed by enable_tracing on this thread before
  // the recorders (and everything they reference) go away.
  if (tracing()) metrics::FlightRecorder::set_active(nullptr);
  if (profiling()) profile::Profiler::set_thread_active(nullptr);
}

std::size_t Platform::folding_ratio() const {
  const std::size_t n = topo_.total_nodes();
  const std::size_t p = config_.physical_nodes;
  return (n + p - 1) / p;
}

std::size_t Platform::pnode_of_vnode(std::size_t i) const {
  return i / folding_ratio();
}

net::Network& Platform::network_of_pnode(std::size_t p) {
  return *shards_[shard_of_pnode(p)]->network;
}

sockets::SocketManager& Platform::sockets_of_pnode(std::size_t p) {
  return *shards_[shard_of_pnode(p)]->sockets;
}

SimTime Platform::now() const { return engine_->now(); }

std::uint64_t Platform::dispatched_events() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->sim.dispatched_events();
  return total;
}

std::size_t Platform::pending_events() const {
  // Handoffs parked in the engine's outbox buffers across a stop count as
  // pending: they re-enter a simulation at the next run's first window.
  std::size_t total = engine_->pending_handoffs();
  for (const auto& shard : shards_) total += shard->sim.pending_events();
  return total;
}

Platform::RunResult Platform::run(SimTime deadline,
                                  std::function<bool()> stop_predicate,
                                  Duration check_interval) {
  std::function<void()> on_barrier;
  if (monitor_ != nullptr) {
    // Every worker is parked at the barrier: fold the shard registries so
    // the tracked columns are current, then sample.
    on_barrier = [this] {
      if (!monitor_->due(now())) return;
      merge_shard_metrics();
      monitor_->sample(health_probe());
    };
  }
  const engine::Engine::StopReason reason =
      engine_->run(deadline, std::move(stop_predicate), check_interval,
                   std::move(on_barrier));
  merge_shard_metrics();
  switch (reason) {
    case engine::Engine::StopReason::kPredicate:
      return RunResult::kPredicate;
    case engine::Engine::StopReason::kDeadline:
      return RunResult::kDeadline;
    default:
      return RunResult::kDrained;
  }
}

metrics::HealthProbe Platform::health_probe() const {
  return {.now = now(),
          .events = dispatched_events(),
          .queue_depth = pending_events()};
}

void Platform::attach_monitor(metrics::HealthMonitor& monitor) {
  P2PLAB_ASSERT_MSG(master_reg_ != nullptr,
                    "bind_metrics first: the monitor reads its registry");
  P2PLAB_ASSERT_MSG(monitor_ == nullptr, "a monitor is already attached");
  merge_shard_metrics();
  monitor_ = &monitor;
  monitor_->start(*master_reg_, health_probe());
}

void Platform::detach_monitor() {
  if (monitor_ == nullptr) return;
  merge_shard_metrics();
  monitor_->stop(health_probe());
  monitor_ = nullptr;
}

void Platform::merge_shard_metrics() {
  if (master_reg_ == nullptr) return;
  std::vector<metrics::Registry*> parts;
  parts.reserve(shards_.size());
  for (const auto& shard : shards_) parts.push_back(&shard->registry);
  master_reg_->fold_shards(parts);
}

void Platform::bind_metrics(metrics::Registry& reg) {
  master_reg_ = &reg;
  for (const auto& shard : shards_) {
    shard->sim.bind_metrics(shard->registry);
    shard->network->bind_metrics(shard->registry);
    shard->sockets->bind_metrics(shard->registry);
  }
}

void Platform::build_cluster() {
  host_by_pnode_.reserve(config_.physical_nodes);
  for (std::size_t p = 0; p < config_.physical_nodes; ++p) {
    // Host addresses start at .1 within the admin subnet.
    const Ipv4Addr admin =
        kAdminSubnet.host(static_cast<std::uint32_t>(p + 1));
    net::Host& host = network_of_pnode(p).add_host(
        "pnode" + std::to_string(p + 1), admin, config_.host,
        /*global_index=*/p);
    host_by_pnode_.push_back(&host);
    engine_->map_address(admin, shard_of_pnode(p));
  }
}

void Platform::deploy_vnodes() {
  const std::size_t n = topo_.total_nodes();
  vnodes_.reserve(n);
  processes_.reserve(n);
  apis_.reserve(n);
  shard_of_vnode_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t p = pnode_of_vnode(i);
    shard_of_vnode_.push_back(shards_[shard_of_pnode(p)].get());
    vnodes_.push_back(std::make_unique<vnode::VirtualNode>(
        *host_by_pnode_[p], static_cast<std::uint32_t>(i),
        topo_.node_address(i)));
    processes_.push_back(std::make_unique<vnode::Process>(*vnodes_.back()));
    apis_.push_back(std::make_unique<sockets::SocketApi>(
        sockets_of_pnode(p), *processes_.back()));
    engine_->map_address(topo_.node_address(i), shard_of_pnode(p));
  }
}

void Platform::compile_rules() {
  access_pipes_.resize(topo_.total_nodes());
  link_faults_.resize(topo_.total_nodes());
  vnode_online_.assign(topo_.total_nodes(), 1);
  // Per physical node: two pipe rules per hosted vnode (the emulated access
  // link, both directions), then one rule per inter-zone latency pair that
  // involves a zone with nodes hosted here (source side only; "the opposite
  // rule being on the nodes hosting" the other zone).
  const auto& zones = topo_.zones();
  const std::size_t n = topo_.total_nodes();

  for (std::size_t p = 0; p < physical_node_count(); ++p) {
    net::Host& host = *host_by_pnode_[p];
    ipfw::Firewall& fw = host.firewall();
    std::uint32_t rule_number = 100;
    std::set<std::size_t> hosted_zones;

    for (std::size_t i = 0; i < n; ++i) {
      if (pnode_of_vnode(i) != p) continue;
      const topology::LinkClass& link = topo_.link_of_node(i);
      const Ipv4Addr addr = topo_.node_address(i);
      const CidrBlock host_block{addr, 32};
      hosted_zones.insert(topo_.zone_of_node(i));

      const ipfw::PipeId up = fw.create_pipe(access_pipe_config(i, link.up));
      fw.add_rule({.number = rule_number++, .src = host_block,
                   .dst = CidrBlock::any(), .dir = ipfw::RuleDir::kOut,
                   .action = ipfw::RuleAction::kPipe, .pipe = up});
      const ipfw::PipeId down =
          fw.create_pipe(access_pipe_config(i, link.down));
      fw.add_rule({.number = rule_number++, .src = CidrBlock::any(),
                   .dst = host_block, .dir = ipfw::RuleDir::kIn,
                   .action = ipfw::RuleAction::kPipe, .pipe = down});
      access_pipes_[i] = AccessPipes{.pnode = p, .up = up, .down = down};
    }

    // Group rules sort after every access rule, however many vnodes this
    // pnode hosts: the packet crosses its own access pipe first.
    std::uint32_t group_rule_number = std::max<std::uint32_t>(60000,
                                                              rule_number);
    for (const topology::LatencyPair& pair : topo_.latencies()) {
      // Does this pnode host nodes belonging to either side of the pair?
      // (Container zones match via subnet containment.)
      auto hosts_side = [&](topology::ZoneId side) {
        for (std::size_t z : hosted_zones) {
          if (zones[side].subnet.contains(zones[z].subnet)) return true;
        }
        return false;
      };
      auto add_group_rule = [&](topology::ZoneId src_zone,
                                topology::ZoneId dst_zone) {
        const ipfw::PipeId pipe = fw.create_pipe({.delay = pair.latency});
        fw.add_rule({.number = group_rule_number++,
                     .src = zones[src_zone].subnet,
                     .dst = zones[dst_zone].subnet,
                     .dir = ipfw::RuleDir::kOut,
                     .action = ipfw::RuleAction::kPipe, .pipe = pipe});
      };
      if (hosts_side(pair.a)) add_group_rule(pair.a, pair.b);
      if (hosts_side(pair.b)) add_group_rule(pair.b, pair.a);
    }
  }
}

void Platform::crash_vnode(std::size_t i) {
  if (vnode_online_.at(i) == 0) return;
  vnode_online_[i] = 0;
  const Ipv4Addr addr = topo_.node_address(i);
  const std::size_t p = pnode_of_vnode(i);
  // Order matters: abort sockets first so their final state transitions do
  // not try to transmit from an already-detached address.
  sockets_of_pnode(p).abort_endpoints_of(addr);
  network_of_pnode(p).detach_address(addr);
}

void Platform::rejoin_vnode(std::size_t i) {
  if (vnode_online_.at(i) != 0) return;
  vnode_online_[i] = 1;
  network_of_pnode(pnode_of_vnode(i))
      .reattach_address(topo_.node_address(i), host_of_vnode(i));
}

void Platform::set_link_down(std::size_t i, bool down) {
  int& depth = link_faults_.at(i).down_depth;
  depth += down ? 1 : -1;
  P2PLAB_ASSERT_MSG(depth >= 0, "link-down window closed twice");
  const AccessPipes& ap = access_pipes_.at(i);
  ipfw::Firewall& fw = host_by_pnode_[ap.pnode]->firewall();
  fw.pipe(ap.up).set_down(depth > 0);
  fw.pipe(ap.down).set_down(depth > 0);
}

bool Platform::link_down(std::size_t i) const {
  const AccessPipes& ap = access_pipes_.at(i);
  return host_by_pnode_[ap.pnode]->firewall().pipe(ap.up).is_down();
}

void Platform::add_link_latency(std::size_t i, Duration extra) {
  link_faults_.at(i).extra_latency += extra;
  apply_link_config(i);
}

std::uint64_t Platform::open_burst_loss(std::size_t i,
                                        const ipfw::GilbertElliott& ge) {
  LinkFaults& faults = link_faults_.at(i);
  const std::uint64_t window = faults.next_burst_window++;
  faults.bursts.emplace(window, ge);
  apply_link_config(i);
  return window;
}

void Platform::close_burst_loss(std::size_t i, std::uint64_t window) {
  const bool was_open = link_faults_.at(i).bursts.erase(window) == 1;
  P2PLAB_ASSERT_MSG(was_open, "burst-loss window closed twice");
  apply_link_config(i);
}

ipfw::PipeConfig Platform::access_pipe_config(std::size_t i,
                                              Bandwidth bandwidth) const {
  const topology::LinkClass& link = topo_.link_of_node(i);
  const LinkFaults& faults = link_faults_.at(i);
  ipfw::GilbertElliott burst{.p_good_to_bad = link.burst_p_good_bad,
                             .p_bad_to_good = link.burst_p_bad_good,
                             .loss_bad = link.burst_loss_bad};
  if (!faults.bursts.empty()) burst = faults.bursts.rbegin()->second;
  return {.bandwidth = bandwidth,
          .delay = link.latency + faults.extra_latency,
          .loss_rate = link.loss_rate,
          .burst_loss = burst,
          .queue_limit = kAccessPipeQueue};
}

void Platform::apply_link_config(std::size_t i) {
  const topology::LinkClass& link = topo_.link_of_node(i);
  const AccessPipes& ap = access_pipes_.at(i);
  ipfw::Firewall& fw = host_by_pnode_[ap.pnode]->firewall();
  fw.pipe(ap.up).reconfigure(access_pipe_config(i, link.up));
  fw.pipe(ap.down).reconfigure(access_pipe_config(i, link.down));
}

std::optional<Duration> Platform::ping(std::size_t src, std::size_t dst,
                                       DataSize size) {
  // Between runs the calling thread owns every shard, so the sockets are
  // set up and the probe sent from here; the request leaves `src` at now()
  // and crosses shards through the engine like any datagram.
  constexpr std::uint16_t kEchoPort = 7;
  const std::uint64_t payload =
      size.count_bytes() > sockets::kUdpHeaderBytes
          ? size.count_bytes() - sockets::kUdpHeaderBytes
          : 0;
  const SimTime start = now();
  std::optional<Duration> rtt;
  const sockets::DatagramSocketPtr echo = api(dst).udp_bind(kEchoPort);
  echo->on_message([raw = echo.get()](sockets::Message&& m, Ipv4Addr from,
                                      std::uint16_t port) {
    raw->send_to(from, port, std::move(m));
  });
  const sockets::DatagramSocketPtr probe = api(src).udp_bind();
  const sim::Simulation& src_sim = sim_of_vnode(src);
  probe->on_message([&rtt, &src_sim, start](sockets::Message&&, Ipv4Addr,
                                            std::uint16_t) {
    rtt = src_sim.now() - start;
  });
  probe->send_to(api(dst).effective_bind_address(), kEchoPort,
                 sockets::Message{0, DataSize::bytes(payload), nullptr});
  run(start + Duration::sec(60), [&rtt] { return rtt.has_value(); },
      engine_->lookahead());
  probe->close();
  echo->close();
  return rtt;
}

std::size_t Platform::total_rules() const {
  std::size_t total = 0;
  for (const net::Host* host : host_by_pnode_) {
    total += host->firewall().rule_count();
  }
  return total;
}

void Platform::enable_tracing() {
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->recorder = std::make_unique<metrics::FlightRecorder>();
    engine_->set_recorder(s, shards_[s]->recorder.get());
  }
  // Setup-time events (main thread) land in shard 0's log — the same log
  // for every shard count, preserving determinism.
  metrics::FlightRecorder::set_active(shards_[0]->recorder.get());
}

bool Platform::tracing() const { return shards_[0]->recorder != nullptr; }

std::vector<std::string> Platform::trace_lines() const {
  using Event = metrics::FlightRecorder::RenderedEvent;
  std::vector<const Event*> events;
  for (const auto& shard : shards_) {
    if (!shard->recorder) continue;
    for (const Event& ev : shard->recorder->rendered_events()) {
      events.push_back(&ev);
    }
  }
  // Canonical order: (timestamp, rendered bytes). Ties across shards carry
  // identical line bytes or commute, so the sorted sequence — unlike any
  // one log's record order — is independent of how hosts were partitioned.
  std::stable_sort(events.begin(), events.end(),
                   [](const Event* a, const Event* b) {
                     if (a->t != b->t) return a->t < b->t;
                     return a->line < b->line;
                   });
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (const Event* ev : events) lines.push_back(ev->line);
  return lines;
}

void Platform::enable_profiling(std::size_t ring_capacity) {
  if (profiler_ != nullptr) return;
  profiler_ = std::make_unique<profile::Profiler>(shard_count(),
                                                  ring_capacity);
  engine_->set_profiler(profiler_.get());
  // Crash drain for the main thread (setup-time assertions); engine
  // workers install their own on entry.
  profile::Profiler::set_thread_active(profiler_.get());
}

std::vector<int> Platform::worker_cpus() const {
  if (!engine_->worker_cpus().empty()) {
    return engine_->worker_cpus();
  }
  return std::vector<int>(shard_count(), -1);
}

bool Platform::flush_profile_to_results(const char* filename) const {
  if (profiler_ == nullptr) return false;
  return profiler_->write_perfetto_to_results(filename);
}

bool Platform::flush_trace_to_results(const char* filename) const {
  if (!tracing()) return false;
  metrics::ResultsFile out(filename);
  if (out.stream() == nullptr) return false;
  for (const std::string& line : trace_lines()) {
    std::fputs(line.c_str(), out.stream());
    std::fputc('\n', out.stream());
  }
  return out.close();
}

}  // namespace p2plab::core
