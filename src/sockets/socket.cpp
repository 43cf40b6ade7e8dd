#include "sockets/socket.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "vnode/interceptor.hpp"

namespace p2plab::sockets {
namespace {

namespace syscall_cost = vnode::syscall_cost;

/// kTcp only: the byte-counting unit for cwnd growth (one "segment" of
/// congestion-avoidance credit per cwnd of acked bytes). Messages are
/// application-sized, so this is an accounting unit, not a wire MTU.
constexpr std::uint64_t kTcpMss = 1460;
/// kTcp only: duplicate cumulative ACKs that trigger fast retransmit.
constexpr int kTcpDupackThreshold = 3;
/// RFC 6298's conservative floor. Access links here serialize a 16 KiB
/// message in over a second, so an aggressive floor guarantees spurious
/// retransmission storms from the handshake-derived RTT.
constexpr Duration kMinRto = Duration::sec(1);
constexpr Duration kInitialRto = Duration::sec(3);
constexpr int kMaxSynRetries = 5;
/// Out-of-order messages a receiver keeps.
constexpr std::size_t kMaxReorderBuffer = 1024;

/// Rebuild the message a data segment or datagram carries (see
/// net/packet.hpp): its body moves out of the packet.
Message take_message(net::Packet& packet, std::uint64_t header_bytes) {
  return Message{
      .type = packet.msg_type,
      .size = DataSize::bytes(packet.wire_size.count_bytes() - header_bytes),
      .body = std::move(packet.body)};
}

}  // namespace

// ---------------------------------------------------------------- manager

SocketManager::SocketManager(net::Network& network, TransportModel transport)
    : network_(network), transport_(transport) {
  network_.set_socket_demux(
      [this](net::Packet&& packet) { dispatch(std::move(packet)); });
}

SocketManager::~SocketManager() { network_.set_socket_demux(nullptr); }

void SocketManager::bind_metrics(metrics::Registry& reg) {
  metrics_.connects_started = reg.counter("sockets.connects_started");
  metrics_.connects_established = reg.counter("sockets.connects_established");
  metrics_.connects_failed = reg.counter("sockets.connects_failed");
  metrics_.accepts = reg.counter("sockets.accepts");
  metrics_.closes = reg.counter("sockets.closes");
  metrics_.aborts = reg.counter("sockets.aborts");
  metrics_.resets = reg.counter("sockets.resets");
  metrics_.rsts_sent = reg.counter("sockets.rsts_sent");
  metrics_.crash_aborts = reg.counter("sockets.crash_aborts");
  metrics_.msgs_sent = reg.counter("sockets.msgs_sent");
  metrics_.msgs_received = reg.counter("sockets.msgs_received");
  metrics_.bytes_sent = reg.counter("sockets.bytes_sent");
  metrics_.bytes_received = reg.counter("sockets.bytes_received");
  metrics_.retransmits = reg.counter("sockets.retransmits");
  metrics_.backpressure_stalls = reg.counter("sockets.backpressure_stalls");
  metrics_.fast_retransmits = reg.counter("sockets.fast_retransmits");
  metrics_.rto_recoveries = reg.counter("sockets.rto_recoveries");
  metrics_.cwnd_halvings = reg.counter("sockets.cwnd_halvings");
}

std::uint16_t SocketManager::alloc_ephemeral_port(Ipv4Addr addr,
                                                  Proto proto) {
  std::uint16_t& next =
      next_ephemeral_[(std::uint64_t{addr.to_u32()} << 1) |
                      static_cast<std::uint64_t>(proto)];
  if (next == 0) next = 49152;
  for (int attempts = 0; attempts < 16384; ++attempts) {
    const std::uint16_t candidate = next;
    next = (next >= 65535) ? 49152 : static_cast<std::uint16_t>(next + 1);
    if (endpoints_.find(key(addr, candidate, proto)) == endpoints_.end()) {
      return candidate;
    }
  }
  P2PLAB_ASSERT_MSG(false, "ephemeral port space exhausted");
}

void SocketManager::bind_endpoint(Ipv4Addr addr, std::uint16_t port,
                                  Endpoint* endpoint, Proto proto) {
  const auto [it, inserted] =
      endpoints_.emplace(key(addr, port, proto), endpoint);
  P2PLAB_ASSERT_MSG(inserted, "port already bound");
  (void)it;
}

void SocketManager::unbind_endpoint(Ipv4Addr addr, std::uint16_t port,
                                    Proto proto) {
  endpoints_.erase(key(addr, port, proto));
}

SocketManager::Endpoint* SocketManager::endpoint_at(Ipv4Addr addr,
                                                    std::uint16_t port,
                                                    Proto proto) {
  const auto it = endpoints_.find(key(addr, port, proto));
  return it == endpoints_.end() ? nullptr : it->second;
}

void SocketManager::dispatch(net::Packet&& packet) {
  const Proto proto = packet.kind == net::PacketKind::kDatagram
                          ? Proto::kUdp
                          : Proto::kTcp;
  Endpoint* endpoint = endpoint_at(packet.dst, packet.dst_port, proto);
  if (endpoint == nullptr) {
    // No socket at this port: answer stream segments with RST, like a real
    // stack (closed port -> ECONNREFUSED, vanished connection ->
    // ECONNRESET). Never answer a RST (no loops) or a datagram (UDP has no
    // reset; what the pipes drop stays dropped).
    if (proto == Proto::kTcp && packet.kind != net::PacketKind::kRst) {
      send_rst(packet);
    }
    return;
  }
  endpoint->handle_packet(std::move(packet));
}

void SocketManager::send_rst(const net::Packet& original) {
  metrics_.rsts_sent.inc();
  net::Packet rst;
  rst.src = original.dst;
  rst.dst = original.src;
  rst.src_port = original.dst_port;
  rst.dst_port = original.src_port;
  rst.wire_size = DataSize::bytes(kHeaderBytes);
  // Ride the control flow of the dead connection (see send_control).
  rst.flow = original.conn | (std::uint64_t{1} << 63);
  rst.kind = net::PacketKind::kRst;
  rst.conn = original.conn;
  network_.send(std::move(rst));
}

void SocketManager::abort_endpoints_of(Ipv4Addr addr) {
  // Aborting unbinds (mutating endpoints_); collect the victims first.
  // Sorted by key: the sweep order must not depend on unordered_map
  // iteration order, which varies with the table's insertion history (the
  // parallel engine replays the same crashes under different shardings).
  std::vector<std::pair<std::uint64_t, Endpoint*>> victims;
  for (const auto& [k, endpoint] : endpoints_) {
    // key layout: address in the high bits (see key()).
    if (static_cast<std::uint32_t>(k >> 17) == addr.to_u32()) {
      victims.emplace_back(k, endpoint);
    }
  }
  std::sort(victims.begin(), victims.end());
  for (const auto& [k, endpoint] : victims) {
    metrics_.crash_aborts.inc();
    endpoint->abort_for_crash();
  }
}

// ----------------------------------------------------------------- socket

StreamSocket::StreamSocket(SocketManager& mgr, net::Host& host)
    : mgr_(mgr), host_(host) {
  cwnd_ = tcp_mode() ? kTcpInitialCwnd.count_bytes()
                     : kSendWindow.count_bytes();
  ssthresh_ = kSendWindow.count_bytes();
}

bool StreamSocket::tcp_mode() const {
  return mgr_.transport() == TransportModel::kTcp;
}

std::uint64_t StreamSocket::effective_window() const {
  const std::uint64_t wnd = kSendWindow.count_bytes();
  return tcp_mode() ? std::min(wnd, cwnd_) : wnd;
}

StreamSocket::~StreamSocket() {
  if (state_ != State::kClosed) teardown();
}

void StreamSocket::start_connect(Ipv4Addr local, std::uint16_t local_port,
                                 Ipv4Addr remote, std::uint16_t remote_port) {
  local_ip_ = local;
  local_port_ = local_port;
  remote_ip_ = remote;
  remote_port_ = remote_port;
  conn_id_ = host_.next_conn_id();
  state_ = State::kSynSent;
  mgr_.metrics().connects_started.inc();
  // Like a kernel socket, the connection owns itself until teardown: data
  // queued by an application that drops its reference still flushes.
  self_ref_ = shared_from_this();
  // Client sockets own their demux entry; teardown unbinds it.
  mgr_.bind_endpoint(local_ip_, local_port_, this);
  on_teardown_ = [this] { mgr_.unbind_endpoint(local_ip_, local_port_); };
  send_syn();
}

void StreamSocket::start_accepted(Ipv4Addr local, std::uint16_t local_port,
                                  Ipv4Addr remote, std::uint16_t remote_port,
                                  std::uint64_t conn_id) {
  local_ip_ = local;
  local_port_ = local_port;
  remote_ip_ = remote;
  remote_port_ = remote_port;
  conn_id_ = conn_id;
  state_ = State::kSynReceived;
  // Demux happens through the listener; on_teardown_ is set by it.
}

void StreamSocket::send(Message message) {
  if (state_ == State::kClosed) return;
  const Duration cpu = host_.charge_cpu(syscall_cost::kSend);
  pending_bytes_ += message.size.count_bytes();
  pending_.push_back(std::move(message));
  if (cpu == Duration::zero()) {
    pump();
  } else {
    std::weak_ptr<StreamSocket> weak = weak_from_this();
    mgr_.sim().schedule_after(cpu, [weak] {
      if (auto self = weak.lock()) self->pump();
    });
  }
}

void StreamSocket::close() {
  if (state_ == State::kClosed) return;
  mgr_.metrics().closes.inc();
  if (state_ != State::kSynSent) {
    send_control(net::PacketKind::kFin, 0);
  }
  teardown();
}

void StreamSocket::abort_for_crash() {
  // The owner crashed: release everything silently. on_close_ must not
  // fire (there is no process left to observe it) and nothing goes on the
  // wire.
  if (state_ == State::kClosed) return;
  on_message_ = nullptr;
  on_close_ = nullptr;
  on_writable_ = nullptr;
  on_connected_ = nullptr;
  on_connect_fail_ = nullptr;
  teardown();
}

void StreamSocket::teardown() {
  // Moving the self-reference out may make `this` expire at scope end —
  // after every member access below.
  StreamSocketPtr keep = std::move(self_ref_);
  state_ = State::kClosed;
  if (timer_armed_) {
    mgr_.sim().cancel(timer_event_);
    timer_armed_ = false;
    timer_event_ = sim::EventId{};
  }
  pending_.clear();
  pending_bytes_ = 0;
  inflight_.clear();
  inflight_bytes_ = 0;
  reorder_ = {};
  if (on_teardown_) {
    auto cb = std::move(on_teardown_);
    on_teardown_ = nullptr;
    cb();
  }
}

void StreamSocket::pump() {
  if (state_ != State::kEstablished && state_ != State::kSynReceived) return;
  bool sent = false;
  // Under kTcp the congestion window can shrink below one message; an
  // empty flight still always admits one message so the connection cannot
  // deadlock on cwnd.
  const std::uint64_t window = effective_window();
  while (!pending_.empty() && inflight_bytes_ < window) {
    Message message = std::move(pending_.front());
    pending_.pop_front();
    pending_bytes_ -= message.size.count_bytes();
    const std::uint64_t seq = next_seq_++;
    inflight_bytes_ += message.size.count_bytes();
    mgr_.metrics().msgs_sent.inc();
    mgr_.metrics().bytes_sent.inc(message.size.count_bytes());
    const SimTime now = mgr_.sim().now();
    inflight_.push_back(InFlight{seq, std::move(message), now, now, false});
    transmit_data(seq, inflight_.back().message);
    sent = true;
  }
  if (!pending_.empty()) {
    // Send window full with data still queued: the application is being
    // backpressured until acks drain the window.
    mgr_.metrics().backpressure_stalls.inc();
  }
  if (sent && !inflight_.empty()) {
    arm_timer(inflight_.front().sent_at + rto());
  }
}

void StreamSocket::transmit_data(std::uint64_t seq, const Message& message) {
  bytes_sent_ += message.size.count_bytes();
  net::Packet packet;
  packet.src = local_ip_;
  packet.dst = remote_ip_;
  packet.src_port = local_port_;
  packet.dst_port = remote_port_;
  packet.wire_size =
      DataSize::bytes(message.size.count_bytes() + kHeaderBytes);
  packet.msg_type = message.type;
  packet.flow = conn_id_;
  packet.kind = net::PacketKind::kData;
  packet.conn = conn_id_;
  packet.seq = seq;
  packet.body = message.body;
  mgr_.network().send(std::move(packet));
}

void StreamSocket::send_control(net::PacketKind kind, std::uint64_t seq,
                                DataSize wire_size) {
  net::Packet packet;
  packet.src = local_ip_;
  packet.dst = remote_ip_;
  packet.src_port = local_port_;
  packet.dst_port = remote_port_;
  packet.wire_size = wire_size;
  // Control segments ride a sibling flow: inside the Dummynet pipes they
  // round-robin *against* this connection's data instead of queueing
  // behind it. A 40 B ACK stuck behind 16 KiB of our own outgoing pieces
  // would throttle every mutual (tit-for-tat) edge to stop-and-wait.
  packet.flow = conn_id_ | (std::uint64_t{1} << 63);
  packet.kind = kind;
  packet.conn = conn_id_;
  packet.seq = seq;
  mgr_.network().send(std::move(packet));
}

void StreamSocket::send_syn() {
  syn_sent_at_ = mgr_.sim().now();
  send_control(net::PacketKind::kSyn, 0, DataSize::bytes(64));
  arm_timer(syn_sent_at_ + rto());
}

void StreamSocket::send_ack() {
  send_control(net::PacketKind::kAck, expected_seq_);
}

void StreamSocket::handle_packet(net::Packet&& packet) {
  if (state_ == State::kClosed) return;
  // Teardown paths (FIN, connect failure) may drop the last owning
  // reference while we are still executing.
  StreamSocketPtr guard = shared_from_this();
  switch (packet.kind) {
    case net::PacketKind::kSynAck:
      if (state_ == State::kSynSent) {
        // Prime the estimator with the handshake sample but keep the
        // conservative initial RTO until a *data* segment is acked: a 64 B
        // SYN says nothing about the serialization delay of full messages,
        // and an under-estimated first RTO retransmits the whole opening
        // window.
        const Duration sample = mgr_.sim().now() - syn_sent_at_;
        srtt_s_ = sample.to_seconds();
        rttvar_s_ = srtt_s_ / 2.0;
        state_ = State::kEstablished;
        mgr_.metrics().connects_established.inc();
        if (on_connected_) {
          auto cb = std::move(on_connected_);
          on_connected_ = nullptr;
          cb(shared_from_this());
        }
        // Data that overtook the SYN-ACK (control packets ride a separate
        // pipe flow) was parked in the reorder buffer; deliver it now that
        // the application handler is attached.
        deliver_in_order();
        send_ack();
        pump();
      } else {
        send_ack();  // duplicate SYN-ACK: our ACK was lost
      }
      break;
    case net::PacketKind::kData:
      if (state_ == State::kSynSent) {
        // Handshake not complete on our side yet: park the payload until
        // the SYN-ACK arrives (see the kSynAck case).
        park(packet.seq, take_message(packet, kHeaderBytes));
        break;
      }
      if (state_ == State::kSynReceived) promote_established();
      on_data(std::move(packet));
      break;
    case net::PacketKind::kAck:
      if (state_ == State::kSynReceived) promote_established();
      on_ack(packet.seq);
      break;
    case net::PacketKind::kFin: {
      mgr_.metrics().closes.inc();
      teardown();
      if (on_close_) on_close_();
      break;
    }
    case net::PacketKind::kRst: {
      // Guard against stale resets addressed to a previous connection that
      // held this (addr, port) pair.
      if (packet.conn != conn_id_) break;
      if (state_ == State::kSynSent) {
        // ECONNREFUSED: no listener at the remote port.
        mgr_.metrics().connects_failed.inc();
        auto fail = std::move(on_connect_fail_);
        on_connected_ = nullptr;
        teardown();
        if (fail) fail();
        break;
      }
      // ECONNRESET: the remote end is gone; surface it to the owner
      // immediately instead of grinding through RTO exhaustion.
      mgr_.metrics().resets.inc();
      teardown();
      if (on_close_) on_close_();
      break;
    }
    case net::PacketKind::kSyn:
    case net::PacketKind::kDatagram:
      break;  // not meaningful on an established socket
  }
}

void StreamSocket::promote_established() {
  if (state_ == State::kSynReceived) {
    state_ = State::kEstablished;
    pump();
  }
}

void StreamSocket::on_data(net::Packet&& packet) {
  const std::uint64_t seq = packet.seq;
  if (seq < expected_seq_) {
    send_ack();  // duplicate; re-ack so the sender advances
    return;
  }
  if (seq > expected_seq_) {
    park(seq, take_message(packet, kHeaderBytes));
    send_ack();  // dup-ack carrying the hole
    return;
  }
  deliver(take_message(packet, kHeaderBytes));
  deliver_in_order();
  send_ack();
}

void StreamSocket::park(std::uint64_t seq, Message&& message) {
  if (reorder_.size() >= kMaxReorderBuffer) return;
  const auto it = std::lower_bound(
      reorder_.begin(), reorder_.end(), seq,
      [](const Parked& parked, std::uint64_t s) { return parked.seq > s; });
  if (it != reorder_.end() && it->seq == seq) return;  // already parked
  reorder_.insert(it, Parked{seq, std::move(message)});
}

void StreamSocket::deliver(Message&& message) {
  ++expected_seq_;
  bytes_received_ += message.size.count_bytes();
  mgr_.metrics().msgs_received.inc();
  mgr_.metrics().bytes_received.inc(message.size.count_bytes());
  // The handler may clear or replace itself, or close the socket.
  if (on_message_) on_message_(std::move(message));
}

void StreamSocket::deliver_in_order() {
  // Re-read the back each round: a handler that closes the socket empties
  // the buffer.
  while (!reorder_.empty() && reorder_.back().seq == expected_seq_) {
    Message message = std::move(reorder_.back().message);
    reorder_.pop_back();
    deliver(std::move(message));
  }
}

void StreamSocket::on_ack(std::uint64_t cumulative) {
  bool progressed = false;
  bool rtt_sample_valid = false;
  SimTime sample_sent_at;
  bool have_clamp_sample = false;
  SimTime clamp_first_sent_at;
  std::uint64_t acked_bytes = 0;
  while (!inflight_.empty() && inflight_.front().seq < cumulative) {
    const InFlight& entry = inflight_.front();
    inflight_bytes_ -= entry.message.size.count_bytes();
    acked_bytes += entry.message.size.count_bytes();
    if (!entry.retransmitted) {  // Karn's rule
      rtt_sample_valid = true;
      sample_sent_at = entry.sent_at;
    } else {
      have_clamp_sample = true;
      clamp_first_sent_at = entry.first_sent_at;
    }
    inflight_.pop_front();
    progressed = true;
  }
  if (!progressed) {
    // No cumulative progress: the receiver saw something out of order or
    // redundant. Under kFlow recovery stays timeout-driven; under kTcp the
    // third duplicate of the highest ack we have already seen signals a
    // hole at the front of the flight and triggers fast retransmit.
    if (!tcp_mode() || state_ != State::kEstablished || inflight_.empty() ||
        cumulative != inflight_.front().seq) {
      return;
    }
    if (cumulative != last_cumulative_) {
      // First ack at this level (e.g. the handshake ack); only repeats of
      // it count as duplicates.
      last_cumulative_ = cumulative;
      dup_acks_ = 0;
      return;
    }
    ++dup_acks_;
    if (dup_acks_ == kTcpDupackThreshold &&
        !in_recovery_) {
      enter_loss_recovery(/*fast=*/true);
    }
    return;
  }
  last_cumulative_ = std::max(last_cumulative_, cumulative);
  dup_acks_ = 0;
  // Only a clean (never-retransmitted) sample proves the current RTO is
  // adequate; resetting the backoff on *any* progress would let a
  // spurious-retransmission cycle sustain itself (Karn's rule blocks the
  // samples that would otherwise raise the estimate).
  if (rtt_sample_valid) {
    backoff_ = 0;
    consecutive_timeouts_ = 0;
    observe_rtt(mgr_.sim().now() - sample_sent_at);
  } else if (tcp_mode()) {
    // Under kTcp, ack silence — not sample cleanliness — is the abort
    // criterion (see last_progress_): any cumulative progress proves the
    // peer is alive, so a fault window full of retransmitted-only acks
    // must not accumulate toward the ETIMEDOUT abort.
    consecutive_timeouts_ = 0;
    if (have_clamp_sample) {
      // Karn-clamp: every popped segment was retransmitted, so no sample
      // is unambiguous — but (now - first transmission) is a hard upper
      // bound on the path RTT whichever copy this ack answers. Feeding it
      // in the raising direction only lets the estimator learn that the
      // path got *slower* (a latency-spike fault window) instead of
      // staying pinned at the pre-spike RTO and re-sending the window
      // once per timeout for the whole spike. kFlow keeps its historical
      // timeout dynamics untouched — fig8's flow-model output is pinned
      // byte-for-byte by the scenario suite.
      const Duration upper = mgr_.sim().now() - clamp_first_sent_at;
      if (upper.to_seconds() > srtt_s_) observe_rtt(upper);
    }
  }
  last_progress_ = mgr_.sim().now();
  if (tcp_mode()) {
    const std::uint64_t cap = kSendWindow.count_bytes();
    if (in_recovery_) {
      if (cumulative >= recovery_point_) {
        // Full ack: everything outstanding at the loss is repaired.
        in_recovery_ = false;
        cwnd_ = std::max(ssthresh_, kTcpMss);
        ca_credit_ = 0;
      } else if (!inflight_.empty()) {
        // NewReno partial ack: the next hole was lost in the same event;
        // retransmit it now instead of waiting for three more dup-acks.
        InFlight& front = inflight_.front();
        front.sent_at = mgr_.sim().now();
        front.retransmitted = true;
        mgr_.metrics().retransmits.inc();
        bytes_sent_ -= front.message.size.count_bytes();  // recounted below
        transmit_data(front.seq, front.message);
      }
    } else if (cwnd_ < ssthresh_) {
      cwnd_ = std::min(cwnd_ + acked_bytes, cap);  // slow start
    } else {
      // Congestion avoidance, byte-counted: +1 MSS per cwnd of acked data.
      ca_credit_ += acked_bytes;
      while (ca_credit_ >= cwnd_) {
        ca_credit_ -= cwnd_;
        cwnd_ = std::min(cwnd_ + kTcpMss, cap);
      }
    }
  }
  pump();
  if (!inflight_.empty()) {
    arm_timer(inflight_.front().sent_at + rto());
  }
  if (on_writable_ && unsent_bytes() <= writable_watermark_) on_writable_();
}

void StreamSocket::enter_loss_recovery(bool fast) {
  ssthresh_ = std::max(inflight_bytes_ / 2, 2 * kTcpMss);
  mgr_.metrics().cwnd_halvings.inc();
  if (fast) {
    // Fast retransmit / NewReno fast recovery: halve and repair the front
    // hole; recovery ends when everything in flight at this point is acked.
    mgr_.metrics().fast_retransmits.inc();
    cwnd_ = ssthresh_;
    in_recovery_ = true;
    recovery_point_ = next_seq_;
  } else {
    // RTO: collapse to one MSS and slow-start back. Only the oldest
    // segment is resent; later holes are repaired by dup-acks or further
    // timeouts, never by a go-back-N whole-window burst.
    mgr_.metrics().rto_recoveries.inc();
    cwnd_ = kTcpMss;
    in_recovery_ = false;
    dup_acks_ = 0;
  }
  ca_credit_ = 0;
  if (!inflight_.empty()) {
    InFlight& front = inflight_.front();
    front.sent_at = mgr_.sim().now();
    front.retransmitted = true;
    mgr_.metrics().retransmits.inc();
    bytes_sent_ -= front.message.size.count_bytes();  // recounted below
    transmit_data(front.seq, front.message);
  }
  arm_timer(mgr_.sim().now() + rto());
}

Duration StreamSocket::rto() const {
  Duration base = kInitialRto;
  if (have_rtt_) {
    base = Duration::seconds(srtt_s_ + 4.0 * rttvar_s_);
    base = std::clamp(base, kMinRto, kMaxRto);
  }
  for (int i = 0; i < backoff_; ++i) {
    base = base * 2;
    if (base >= kMaxRto) return kMaxRto;
  }
  return base;
}

void StreamSocket::observe_rtt(Duration sample) {
  const double s = sample.to_seconds();
  if (!have_rtt_ || s > 4.0 * srtt_s_) {
    // First sample, or a regime change (e.g. from 64 B handshake RTTs to
    // multi-second serialization of full messages): restart the estimator
    // rather than converge over dozens of samples.
    srtt_s_ = s;
    rttvar_s_ = s / 2.0;
    have_rtt_ = true;
    return;
  }
  rttvar_s_ = 0.75 * rttvar_s_ + 0.25 * std::abs(srtt_s_ - s);
  srtt_s_ = 0.875 * srtt_s_ + 0.125 * s;
}

void StreamSocket::arm_timer(SimTime due) {
  // The due time can already be in the past (e.g. the new oldest in-flight
  // segment was sent long ago); fire on the next tick instead.
  due = std::max(due, mgr_.sim().now());
  if (timer_armed_ && armed_until_ <= due) return;
  // Arming earlier supersedes the pending event; cancel it instead of
  // leaving a dead entry in the kernel heap (stale fires are still caught
  // via armed_until_ in case the cancel scan missed).
  if (timer_armed_) mgr_.sim().cancel(timer_event_);
  timer_armed_ = true;
  armed_until_ = due;
  std::weak_ptr<StreamSocket> weak = weak_from_this();
  timer_event_ = mgr_.sim().schedule_at(due, [weak, due] {
    auto self = weak.lock();
    if (!self) return;
    if (!self->timer_armed_ || self->armed_until_ != due) return;  // stale
    self->timer_armed_ = false;
    self->timer_event_ = sim::EventId{};
    self->timer_fired();
  });
}

void StreamSocket::timer_fired() {
  if (state_ == State::kClosed) return;
  const SimTime now = mgr_.sim().now();

  if (state_ == State::kSynSent) {
    const SimTime due = syn_sent_at_ + rto();
    if (now < due) {
      arm_timer(due);
      return;
    }
    if (++syn_retries_ > kMaxSynRetries) {
      mgr_.metrics().connects_failed.inc();
      auto fail = std::move(on_connect_fail_);
      teardown();
      if (fail) fail();
      return;
    }
    ++backoff_;
    send_syn();
    return;
  }

  if (inflight_.empty()) return;  // everything acked; stay disarmed
  const SimTime base = std::max(inflight_.front().sent_at, last_progress_);
  const SimTime due = base + rto();
  if (now < due) {
    arm_timer(due);
    return;
  }
  if (++consecutive_timeouts_ > kMaxRetransmitTimeouts) {
    // The peer is unreachable: abort like ETIMEDOUT.
    mgr_.metrics().aborts.inc();
    teardown();
    if (on_close_) on_close_();
    return;
  }
  ++backoff_;
  if (backoff_ > 8) backoff_ = 8;
  if (tcp_mode()) {
    // RTO under kTcp: multiplicative decrease + single-segment repair.
    enter_loss_recovery(/*fast=*/false);
    return;
  }
  // kFlow go-back-N: retransmit the whole window.
  for (std::size_t i = 0; i < inflight_.size(); ++i) {
    InFlight& entry = inflight_[i];
    entry.sent_at = now;
    entry.retransmitted = true;
    mgr_.metrics().retransmits.inc();
    bytes_sent_ -= entry.message.size.count_bytes();  // counted again below
    transmit_data(entry.seq, entry.message);
  }
  arm_timer(now + rto());
}

// --------------------------------------------------------------- listener

Listener::Listener(SocketManager& mgr, net::Host& host, Ipv4Addr ip,
                   std::uint16_t port, AcceptHandler on_accept)
    : mgr_(mgr),
      host_(host),
      local_ip_(ip),
      local_port_(port),
      on_accept_(std::move(on_accept)) {
  mgr_.bind_endpoint(local_ip_, local_port_, this);
}

Listener::~Listener() {
  if (bound_) mgr_.unbind_endpoint(local_ip_, local_port_);
}

void Listener::abort_for_crash() {
  // Abort accepted connections first (they demux through us, not through
  // the manager's port table), then release the port. The unbind must not
  // run again from the destructor: by then a rejoined process may have
  // bound a fresh listener to the same (addr, port).
  accepting_ = false;
  on_accept_ = nullptr;
  auto conns = std::move(conns_);
  conns_.clear();
  // Sorted sweep: abort order must not depend on hash-table history (see
  // SocketManager::abort_endpoints_of).
  std::vector<std::pair<std::uint64_t, StreamSocketPtr>> victims(
      std::make_move_iterator(conns.begin()),
      std::make_move_iterator(conns.end()));
  std::sort(victims.begin(), victims.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (auto& [key, socket] : victims) socket->abort_for_crash();
  if (bound_) {
    mgr_.unbind_endpoint(local_ip_, local_port_);
    bound_ = false;
  }
}

void Listener::handle_packet(net::Packet&& packet) {
  const std::uint64_t key = conn_key(packet.src, packet.src_port);
  if (packet.kind == net::PacketKind::kSyn) {
    const auto existing = conns_.find(key);
    if (existing != conns_.end()) {
      // Duplicate SYN: our SYN-ACK was lost; resend it.
      existing->second->send_control(net::PacketKind::kSynAck, 0,
                                     DataSize::bytes(64));
      return;
    }
    if (!accepting_) return;
    mgr_.metrics().accepts.inc();
    host_.charge_cpu(syscall_cost::kAccept);
    StreamSocketPtr socket{new StreamSocket(mgr_, host_)};
    socket->start_accepted(local_ip_, local_port_, packet.src,
                           packet.src_port, packet.conn);
    std::weak_ptr<Listener> weak = weak_from_this();
    socket->on_teardown_ = [weak, key] {
      if (auto self = weak.lock()) self->conns_.erase(key);
    };
    conns_.emplace(key, socket);
    socket->send_control(net::PacketKind::kSynAck, 0, DataSize::bytes(64));
    if (on_accept_) on_accept_(socket);
    return;
  }
  const auto it = conns_.find(key);
  if (it == conns_.end()) return;  // stale packet for a gone connection
  // Keep the socket alive through the handler even if it closes itself.
  StreamSocketPtr socket = it->second;
  socket->handle_packet(std::move(packet));
}

// -------------------------------------------------------------------- api

Ipv4Addr SocketApi::effective_bind_address() const {
  return vnode::on_connect_or_listen(process_, std::nullopt).address;
}

void SocketApi::connect(Ipv4Addr remote, std::uint16_t remote_port,
                        std::function<void(StreamSocketPtr)> on_connected,
                        std::function<void()> on_fail) {
  const auto decision = vnode::on_connect_or_listen(process_, std::nullopt);
  const Duration cpu = process_.host().charge_cpu(
      syscall_cost::kSocket + syscall_cost::kConnect + decision.added_cost);

  StreamSocketPtr socket{new StreamSocket(mgr_, process_.host())};
  const Ipv4Addr local = decision.address;
  const std::uint16_t local_port = mgr_.alloc_ephemeral_port(local);
  // The socket holds the callbacks, so the deferred start fits
  // InlineCallback's inline budget instead of boxing two std::functions.
  socket->on_connected_ = std::move(on_connected);
  socket->on_connect_fail_ = std::move(on_fail);
  auto begin = [socket, local, local_port, remote, remote_port] {
    socket->start_connect(local, local_port, remote, remote_port);
  };
  if (cpu == Duration::zero()) {
    begin();
  } else {
    mgr_.sim().schedule_after(cpu, std::move(begin));
  }
}

// ---------------------------------------------------------------- datagram

DatagramSocket::DatagramSocket(SocketManager& mgr, net::Host& host,
                               Ipv4Addr ip, std::uint16_t port)
    : mgr_(mgr),
      host_(host),
      local_ip_(ip),
      local_port_(port),
      flow_(host.next_conn_id()) {
  mgr_.bind_endpoint(local_ip_, local_port_, this, Proto::kUdp);
}

DatagramSocket::~DatagramSocket() {
  if (open_) mgr_.unbind_endpoint(local_ip_, local_port_, Proto::kUdp);
}

void DatagramSocket::close() {
  if (!open_) return;
  open_ = false;
  mgr_.unbind_endpoint(local_ip_, local_port_, Proto::kUdp);
}

void DatagramSocket::send_to(Ipv4Addr remote, std::uint16_t remote_port,
                             Message message) {
  if (!open_) return;
  host_.charge_cpu(syscall_cost::kSend);
  ++sent_;
  net::Packet packet;
  packet.src = local_ip_;
  packet.dst = remote;
  packet.src_port = local_port_;
  packet.dst_port = remote_port;
  packet.wire_size =
      DataSize::bytes(message.size.count_bytes() + kUdpHeaderBytes);
  packet.msg_type = message.type;
  packet.flow = flow_;
  packet.kind = net::PacketKind::kDatagram;
  packet.body = std::move(message.body);
  mgr_.network().send(std::move(packet));
}

void DatagramSocket::handle_packet(net::Packet&& packet) {
  if (!open_) return;
  ++received_;
  if (!handler_) return;
  // The handler may drop the last owning reference to this socket; the
  // slot is written back after the call.
  const DatagramSocketPtr guard = shared_from_this();
  handler_(take_message(packet, kUdpHeaderBytes), packet.src,
           packet.src_port);
}

ListenerPtr SocketApi::listen(std::uint16_t port,
                              Listener::AcceptHandler on_accept) {
  const auto decision = vnode::on_connect_or_listen(process_, std::nullopt);
  process_.host().charge_cpu(syscall_cost::kSocket + syscall_cost::kListen +
                             decision.added_cost);
  return ListenerPtr{new Listener(mgr_, process_.host(), decision.address,
                                  port, std::move(on_accept))};
}

DatagramSocketPtr SocketApi::udp_bind(std::uint16_t port) {
  // Explicit bind(): the interception layer rewrites the address to
  // $BINDIP (the "similar approach is possible for UDP" of the paper).
  const auto decision =
      vnode::on_bind(process_, process_.host().admin_ip());
  process_.host().charge_cpu(syscall_cost::kSocket + syscall_cost::kBind +
                             decision.added_cost);
  const Ipv4Addr local = decision.address;
  const std::uint16_t bound =
      port != 0 ? port : mgr_.alloc_ephemeral_port(local, Proto::kUdp);
  return DatagramSocketPtr{
      new DatagramSocket(mgr_, process_.host(), local, bound)};
}

}  // namespace p2plab::sockets
