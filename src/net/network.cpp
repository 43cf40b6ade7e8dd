#include "net/network.hpp"

#include <utility>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace p2plab::net {

Network::Network(sim::Simulation& sim, Rng rng) : sim_(sim), rng_(rng) {}

Host& Network::add_host(std::string name, Ipv4Addr admin_ip,
                        HostConfig config, std::size_t global_index) {
  if (global_index == kAutoIndex) global_index = hosts_.size();
  // The rng stream is forked from the *global* index: a host gets the same
  // randomness (firewall pipes, loss draws) no matter which shard's Network
  // it is built into, which the engine's determinism guarantee relies on.
  hosts_.push_back(std::make_unique<Host>(*this, std::move(name), admin_ip,
                                          config, rng_.fork(global_index + 100),
                                          global_index));
  if (bound_reg_ != nullptr) hosts_.back()->firewall().bind_metrics(*bound_reg_);
  return *hosts_.back();
}

void Network::set_socket_demux(std::function<void(Packet&&)> demux) {
  P2PLAB_ASSERT_MSG(!socket_demux_ || !demux,
                    "a socket demux is already installed on this network");
  socket_demux_ = std::move(demux);
}

void Network::bind_metrics(metrics::Registry& reg) {
  pool_.bind_metrics(reg);
  metrics_.packets_sent = reg.counter("net.packets_sent");
  metrics_.packets_delivered = reg.counter("net.packets_delivered");
  metrics_.packets_dropped_fw = reg.counter("net.packets_dropped_fw");
  metrics_.packets_dropped_pipe = reg.counter("net.packets_dropped_pipe");
  metrics_.packets_unroutable = reg.counter("net.packets_unroutable");
  metrics_.bytes_sent = reg.counter("net.bytes_sent");
  metrics_.bytes_delivered = reg.counter("net.bytes_delivered");
  metrics_.nic_tx_bytes = reg.counter("net.nic.tx_bytes");
  metrics_.nic_rx_bytes = reg.counter("net.nic.rx_bytes");
  metrics_.cpu_charged_ns = reg.counter("net.cpu_charged_ns");
  bound_reg_ = &reg;
  for (auto& host : hosts_) host->firewall().bind_metrics(reg);
}

Host* Network::host_of(Ipv4Addr addr) {
  const auto it = by_address_.find(addr.to_u32());
  return it == by_address_.end() ? nullptr : it->second;
}

void Network::register_address(Ipv4Addr addr, Host* host) {
  const auto [it, inserted] = by_address_.emplace(addr.to_u32(), host);
  P2PLAB_ASSERT_MSG(inserted, "IP address assigned twice");
  (void)it;
}

bool Network::detach_address(Ipv4Addr addr) {
  return by_address_.erase(addr.to_u32()) > 0;
}

void Network::reattach_address(Ipv4Addr addr, Host& host) {
  register_address(addr, &host);
}

void Network::send(Packet packet) {
  metrics_.packets_sent.inc();
  metrics_.bytes_sent.inc(packet.wire_size.count_bytes());
  packet.sent_at = sim_.now();

  Host* src = host_of(packet.src);
  if (src == nullptr) {
    // Source address detached (crashed vnode with a send still queued, a
    // departed node's retransmission): the packet dies at the NIC instead
    // of wedging the run on an assertion.
    metrics_.packets_unroutable.inc();
    return;
  }
  // Loopback (both endpoints on this host) stays entirely local; every
  // other packet takes the deferred-delay handoff path — even when the
  // destination is on this same shard, so that the event sequence does not
  // depend on how hosts were partitioned into shards. Destination
  // routability is checked on the destination shard (its address table
  // cannot be read from here without a race); a withdrawn address therefore
  // still costs the source its pipe bandwidth, which is also what a real
  // NIC would do.
  const bool loopback = host_of(packet.dst) == src;
  leave_source(pool_.acquire(std::move(packet)), *src,
               loopback ? PathStage::kLoopback : PathStage::kSource);
}

void Network::leave_source(PacketRef packet, Host& src, PathStage stage) {
  auto match = src.firewall().classify(packet->src, packet->dst,
                                       ipfw::RuleDir::kOut);
  if (match.denied) {
    metrics_.packets_dropped_fw.inc();
    return;  // the ref dies here; the cell goes straight back to the pool
  }
  // Firewall scan + stack processing are CPU work on the source host.
  const Duration cpu_delay =
      src.charge_cpu(src.firewall().scan_cost(match) + kPacketCpuCost);
  if (cpu_delay == Duration::zero()) {
    pass_pipes(std::move(packet), src, std::move(match.pipes), 0, stage);
    return;
  }
  // 57 bytes of capture — inside InlineCallback's inline budget.
  sim_.schedule_after(
      cpu_delay, [this, packet = std::move(packet), &src,
                  pipes = std::move(match.pipes), stage]() mutable {
        pass_pipes(std::move(packet), src, std::move(pipes), 0, stage);
      });
}

void Network::handoff_exit(PacketRef packet, Host& src) {
  // The bandwidth stage of the source pipes just completed; the fixed
  // delays they deferred ride in packet->deferred_delay. Reserve the source
  // NIC now (its contention is source-shard state) and fold tx + switch
  // into the stamp; the destination shard reserves its own NIC-rx at the
  // stamp. The deferred access-link delay (>= the topology's minimum) is
  // exactly the engine's lookahead: the stamp always lands at or beyond the
  // end of the window being executed.
  const SimTime now = sim_.now();
  const auto tx_delay = src.nic_tx().transmit(now, packet->wire_size);
  if (!tx_delay) {
    metrics_.packets_dropped_pipe.inc();
    return;
  }
  metrics_.nic_tx_bytes.inc(packet->wire_size.count_bytes());
  const SimTime stamp =
      now + packet->deferred_delay + *tx_delay + kSwitchLatency;
  if (handoff_ == nullptr) {
    // A bare Network is its own single shard: the same stamp, scheduled
    // here, and the same cell carried on to the destination side.
    sim_.schedule_at(stamp, [this, packet = std::move(packet)]() mutable {
      fabric_arrive(std::move(packet));
    });
    return;
  }
  if (!handoff_->push(handoff_shard_, src.global_index(),
                      src.next_fabric_seq(), stamp, std::move(*packet))) {
    // No shard ever deployed the address (as opposed to withdrawn).
    metrics_.packets_unroutable.inc();
  }
  // The moved-out husk recycles as the ref dies here.
}

void Network::fabric_arrive(PacketRef packet) {
  Host* dst = host_of(packet->dst);
  if (dst == nullptr) {
    // Address withdrawn (crashed vnode) — discovered here, on the shard
    // that owns the destination's routing state.
    metrics_.packets_unroutable.inc();
    return;
  }
  const auto rx_delay = dst->nic_rx().transmit(sim_.now(), packet->wire_size);
  if (!rx_delay) {
    metrics_.packets_dropped_pipe.inc();
    return;
  }
  metrics_.nic_rx_bytes.inc(packet->wire_size.count_bytes());
  if (*rx_delay == Duration::zero()) {
    arrive_at_destination(std::move(packet), *dst);
  } else {
    sim_.schedule_after(*rx_delay,
                        [this, packet = std::move(packet), dst]() mutable {
                          arrive_at_destination(std::move(packet), *dst);
                        });
  }
}

void Network::arrive_at_destination(PacketRef packet, Host& dst) {
  auto match = dst.firewall().classify(packet->src, packet->dst,
                                       ipfw::RuleDir::kIn);
  if (match.denied) {
    metrics_.packets_dropped_fw.inc();
    return;
  }
  const Duration cpu_delay =
      dst.charge_cpu(dst.firewall().scan_cost(match) + kPacketCpuCost);
  if (cpu_delay == Duration::zero()) {
    pass_pipes(std::move(packet), dst, std::move(match.pipes), 0,
               PathStage::kDest);
    return;
  }
  sim_.schedule_after(
      cpu_delay, [this, packet = std::move(packet), &dst,
                  pipes = std::move(match.pipes)]() mutable {
        pass_pipes(std::move(packet), dst, std::move(pipes), 0,
                   PathStage::kDest);
      });
}

void Network::deliver(PacketRef packet) {
  metrics_.packets_delivered.inc();
  metrics_.bytes_delivered.inc(packet->wire_size.count_bytes());
  if (socket_demux_) {
    socket_demux_(std::move(*packet));
  } else {
    P2PLAB_LOG_DEBUG("packet to %s:%u arrived with no socket demux installed",
                     packet->dst.to_string().c_str(), packet->dst_port);
  }
  // The ref dies here: the cell returns to the pool after the handler has
  // moved the packet's contents out.
}

void Network::pass_pipes(PacketRef packet, Host& host, ipfw::PipeList pipes,
                         std::uint32_t index, PathStage stage) {
  if (index >= pipes.size()) {
    finish_path(std::move(packet), host, stage);
    return;
  }
  const ipfw::PipeId id = pipes[index];
  const DataSize size = packet->wire_size;
  const ipfw::FlowId flow = packet->flow;
  // Pool cells are address-stable, so the defer pointer survives the move
  // of the ref into the continuation below.
  Duration* const defer =
      stage == PathStage::kSource ? &packet->deferred_delay : nullptr;
  // 61 bytes of capture — the closure InlineCallback's budget is sized for.
  // If a pipe drops the segment, enqueue returns false and the continuation
  // (and the ref inside it) dies unexecuted with the temporary, so the cell
  // recycles on its own.
  const bool kept = host.firewall().pipe(id).enqueue(ipfw::Pipe::Segment{
      .size = size,
      .flow = flow,
      .on_exit =
          [this, packet = std::move(packet), &host, pipes = std::move(pipes),
           index, stage]() mutable {
            pass_pipes(std::move(packet), host, std::move(pipes), index + 1,
                       stage);
          },
      .defer_delay = defer});
  if (!kept) metrics_.packets_dropped_pipe.inc();
}

void Network::finish_path(PacketRef packet, Host& host, PathStage stage) {
  switch (stage) {
    case PathStage::kSource:
      handoff_exit(std::move(packet), host);
      return;
    case PathStage::kLoopback: {
      // Co-located vnodes: skip NIC and switch.
      Host* dst = host_of(packet->dst);
      if (dst == nullptr) {  // address vanished mid-flight
        metrics_.packets_unroutable.inc();
        return;
      }
      arrive_at_destination(std::move(packet), *dst);
      return;
    }
    case PathStage::kDest:
      deliver(std::move(packet));
      return;
  }
}

}  // namespace p2plab::net
