// BSD-style sockets over the emulated network.
//
// The studied applications (our BitTorrent client, the tracker, the example
// programs) use this API exactly as they would use the real one; the
// interception layer (vnode/interceptor.hpp) rewrites their binds to the
// virtual node's aliased IP, which is the whole point of P2PLab's
// process-level virtualization.
//
// Transport: a reliable, in-order message stream —
//   - connection establishment with SYN/SYN-ACK (client retries SYNs);
//   - a byte-windowed sender (kSendWindow, 256 KiB) with cumulative ACKs;
//   - go-back-N retransmission on RTO (RTT estimated per Jacobson/Karn);
//   - FIN teardown notifying the remote's on_close.
// Two selectable congestion regimes (the SocketManager's TransportModel,
// DESIGN.md §13):
//   - kFlow (default): no congestion control; fair sharing of bottleneck
//     links across connections — TCP's role on the real platform — is
//     provided by deficit-round-robin in the Dummynet pipes (DESIGN.md §6).
//   - kTcp: a loss-and-RTT-responsive NewReno-style model. Slow start and
//     AIMD congestion avoidance grow a byte-counted cwnd; three duplicate
//     cumulative ACKs trigger fast retransmit (ssthresh = flight/2, cwnd =
//     ssthresh) ahead of the RTO path, which collapses cwnd to one MSS and
//     retransmits only the oldest segment (the rest recover via further
//     dup-acks or timeouts instead of a go-back-N burst).
// Both regimes share the sequencing, RTO and teardown machinery and are
// deterministic: same inputs, same shard count, bit-identical schedules.
//
// The message path adds no heap allocation per message: send queues are
// Fifo rings, a segment or datagram carries its message's type and body in
// the packet (message.hpp), the receive side parks out-of-order messages in
// a sorted vector, and handlers run in place (HandlerSlot) instead of
// through a copy of their std::function.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fifo.hpp"
#include "common/ipv4.hpp"
#include "metrics/registry.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "sockets/message.hpp"
#include "vnode/vnode.hpp"

namespace p2plab::sockets {

class StreamSocket;
class Listener;
class DatagramSocket;
class SocketManager;
using StreamSocketPtr = std::shared_ptr<StreamSocket>;
using ListenerPtr = std::shared_ptr<Listener>;
using DatagramSocketPtr = std::shared_ptr<DatagramSocket>;

/// An application callback a socket holds and invokes in place. A handler
/// may clear or replace itself mid-dispatch: the call runs on the target
/// moved out of the slot, which takes it back afterwards unless the slot
/// was assigned meanwhile. Unlike invoking through a copy, this costs no
/// allocation whatever the handler captures. The owner must outlive the
/// call.
template <typename Signature>
class HandlerSlot;

template <typename... Args>
class HandlerSlot<void(Args...)> {
 public:
  using Function = std::function<void(Args...)>;

  HandlerSlot& operator=(Function fn) {
    fn_ = std::move(fn);
    ++assignments_;
    return *this;
  }
  explicit operator bool() const { return static_cast<bool>(fn_); }

  void operator()(Args... args) {
    Function fn = std::exchange(fn_, nullptr);
    const std::uint64_t assignments = assignments_;
    fn(std::forward<Args>(args)...);
    if (assignments_ == assignments) fn_ = std::move(fn);
  }

 private:
  Function fn_;
  std::uint64_t assignments_ = 0;
};

/// Transport protocol namespaces share the address space but not ports.
enum class Proto : std::uint8_t { kTcp = 0, kUdp = 1 };

/// Which congestion regime the stream sender runs (see the header comment).
enum class TransportModel : std::uint8_t { kFlow = 0, kTcp = 1 };

/// Bytes a stream sender keeps in flight at most (kTcp: also cwnd's cap).
inline constexpr DataSize kSendWindow = DataSize::kib(256);
/// kTcp only: the initial congestion window (RFC 6928's IW10).
inline constexpr DataSize kTcpInitialCwnd = DataSize::bytes(14600);
/// Ceiling of the backed-off retransmission timeout.
inline constexpr Duration kMaxRto = Duration::sec(60);
/// Consecutive RTOs without progress before the connection aborts (the
/// remote's on_close cannot fire; the local one does, like ETIMEDOUT).
inline constexpr int kMaxRetransmitTimeouts = 12;

/// Shared "sockets.*" registry handles for every socket of one manager.
struct SocketMetrics {
  metrics::Counter connects_started;
  metrics::Counter connects_established;
  metrics::Counter connects_failed;  // SYN retries exhausted
  metrics::Counter accepts;
  metrics::Counter closes;  // orderly close() / received FIN
  metrics::Counter aborts;  // retransmit timeouts exhausted (ETIMEDOUT)
  metrics::Counter resets;      // RST received (ECONNRESET/ECONNREFUSED)
  metrics::Counter rsts_sent;   // RSTs emitted for endpoint-less segments
  metrics::Counter crash_aborts;  // endpoints torn down by a vnode crash
  metrics::Counter msgs_sent;
  metrics::Counter msgs_received;
  metrics::Counter bytes_sent;
  metrics::Counter bytes_received;
  metrics::Counter retransmits;          // segments resent (RTO or fast)
  metrics::Counter backpressure_stalls;  // pump left data queued (full window)
  metrics::Counter fast_retransmits;  // kTcp: triple-dup-ack retransmissions
  metrics::Counter rto_recoveries;    // kTcp: RTOs that collapsed cwnd to 1 MSS
  metrics::Counter cwnd_halvings;     // kTcp: ssthresh reductions (any cause)
};

/// Owns the port table and the transport model for one network.
class SocketManager {
 public:
  class Endpoint {
   public:
    virtual ~Endpoint() = default;
    virtual void handle_packet(net::Packet&& packet) = 0;
    /// The owning process died (vnode crash): release transport state and
    /// timers immediately and silently — no FIN, no local callbacks; the
    /// dead process cannot observe anything. Remote ends discover the loss
    /// via RST (if the address returns) or retransmit-timeout exhaustion.
    virtual void abort_for_crash() = 0;
  };

  /// Construction installs this manager as the network's socket demux:
  /// every delivered packet goes through dispatch(). One manager per
  /// network (per shard under the parallel engine).
  explicit SocketManager(net::Network& network,
                         TransportModel transport = TransportModel::kFlow);
  ~SocketManager();

  SocketManager(const SocketManager&) = delete;
  SocketManager& operator=(const SocketManager&) = delete;

  net::Network& network() { return network_; }
  sim::Simulation& sim() { return network_.sim(); }
  TransportModel transport() const { return transport_; }

  std::uint16_t alloc_ephemeral_port(Ipv4Addr addr, Proto proto = Proto::kTcp);

  void bind_endpoint(Ipv4Addr addr, std::uint16_t port, Endpoint* endpoint,
                     Proto proto = Proto::kTcp);
  void unbind_endpoint(Ipv4Addr addr, std::uint16_t port,
                       Proto proto = Proto::kTcp);
  Endpoint* endpoint_at(Ipv4Addr addr, std::uint16_t port,
                        Proto proto = Proto::kTcp);

  /// Deliver handler installed on every packet the socket layer sends.
  void dispatch(net::Packet&& packet);

  /// Abort every endpoint bound at `addr` (all ports, both protocols) —
  /// the socket-table sweep of a vnode crash. Safe against endpoints
  /// unbinding themselves mid-sweep.
  void abort_endpoints_of(Ipv4Addr addr);

  /// Resolve "sockets.*" handles from `reg` (affects all sockets of this
  /// manager, existing and future — the handles are read through here).
  void bind_metrics(metrics::Registry& reg);
  const SocketMetrics& metrics() const { return metrics_; }

 private:
  /// Reply to an endpoint-less stream segment with a reset.
  void send_rst(const net::Packet& original);

  static std::uint64_t key(Ipv4Addr addr, std::uint16_t port, Proto proto) {
    return (std::uint64_t{addr.to_u32()} << 17) |
           (std::uint64_t{port} << 1) | static_cast<std::uint64_t>(proto);
  }

  net::Network& network_;
  TransportModel transport_;
  SocketMetrics metrics_;
  std::unordered_map<std::uint64_t, Endpoint*> endpoints_;
  std::unordered_map<std::uint64_t, std::uint16_t> next_ephemeral_;
};

/// One endpoint of an established (or connecting) stream.
class StreamSocket final : public SocketManager::Endpoint,
                           public std::enable_shared_from_this<StreamSocket> {
 public:
  using MessageHandler = std::function<void(Message&&)>;
  using VoidHandler = std::function<void()>;

  ~StreamSocket() override;

  /// Queue a message for reliable in-order delivery. No-op after close.
  void send(Message message);

  void on_message(MessageHandler handler) { on_message_ = std::move(handler); }
  void on_close(VoidHandler handler) { on_close_ = std::move(handler); }

  /// Send FIN and tear down. The remote's on_close fires when (if) the FIN
  /// arrives; local handlers do not fire.
  void close();

  bool connected() const { return state_ == State::kEstablished; }
  bool closed() const { return state_ == State::kClosed; }
  Ipv4Addr local_ip() const { return local_ip_; }
  Ipv4Addr remote_ip() const { return remote_ip_; }
  std::uint16_t local_port() const { return local_port_; }
  std::uint16_t remote_port() const { return remote_port_; }
  std::uint64_t conn_id() const { return conn_id_; }

  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

  /// Bytes accepted by send() but not yet acknowledged by the remote —
  /// the send-buffer depth an application polls for backpressure.
  std::uint64_t unsent_bytes() const { return pending_bytes_ + inflight_bytes_; }
  /// Fire `handler` whenever acknowledged progress brings unsent_bytes()
  /// to or below `watermark` (a poor man's EPOLLOUT).
  void on_writable(DataSize watermark, VoidHandler handler) {
    writable_watermark_ = watermark.count_bytes();
    on_writable_ = std::move(handler);
  }
  /// Smoothed RTT estimate; zero until the first measurement.
  Duration srtt() const { return Duration::seconds(srtt_s_); }
  /// Congestion window / slow-start threshold in bytes (kTcp; under kFlow
  /// cwnd() reports the static send window and ssthresh() is unused).
  std::uint64_t cwnd() const { return cwnd_; }
  std::uint64_t ssthresh() const { return ssthresh_; }

  void handle_packet(net::Packet&& packet) override;
  void abort_for_crash() override;

 private:
  friend class SocketApi;
  friend class Listener;

  enum class State { kSynSent, kSynReceived, kEstablished, kClosed };

  StreamSocket(SocketManager& mgr, net::Host& host);

  // Client-side setup (SocketApi::connect, which parks the connect
  // callbacks in on_connected_/on_connect_fail_ first).
  void start_connect(Ipv4Addr local, std::uint16_t local_port, Ipv4Addr remote,
                     std::uint16_t remote_port);
  // Server-side setup (Listener, on SYN).
  void start_accepted(Ipv4Addr local, std::uint16_t local_port,
                      Ipv4Addr remote, std::uint16_t remote_port,
                      std::uint64_t conn_id);

  void pump();
  void transmit_data(std::uint64_t seq, const Message& message);
  void send_control(net::PacketKind kind, std::uint64_t seq,
                    DataSize wire_size = DataSize::bytes(kHeaderBytes));
  void send_syn();
  void send_ack();
  void on_data(net::Packet&& packet);
  /// Keep an out-of-order message for later (a duplicate seq is dropped).
  void park(std::uint64_t seq, Message&& message);
  void on_ack(std::uint64_t cumulative);
  void deliver(Message&& message);
  void deliver_in_order();
  void promote_established();

  void arm_timer(SimTime due);
  void timer_fired();
  Duration rto() const;
  void observe_rtt(Duration sample);
  void teardown();  // unregister + mark closed (no FIN)

  SocketManager& mgr_;
  net::Host& host_;
  State state_ = State::kClosed;

  Ipv4Addr local_ip_;
  Ipv4Addr remote_ip_;
  std::uint16_t local_port_ = 0;
  std::uint16_t remote_port_ = 0;
  std::uint64_t conn_id_ = 0;

  bool tcp_mode() const;
  /// Bytes the sender may keep in flight right now: the static send window
  /// under kFlow, min(kSendWindow, cwnd) under kTcp.
  std::uint64_t effective_window() const;
  void enter_loss_recovery(bool fast);

  // Sender.
  struct InFlight {
    std::uint64_t seq;
    Message message;
    SimTime sent_at;        // most recent (re)transmission
    SimTime first_sent_at;  // original transmission (Karn-clamp fallback)
    bool retransmitted = false;
  };
  Fifo<Message> pending_;
  std::uint64_t pending_bytes_ = 0;
  Fifo<InFlight> inflight_;
  std::uint64_t inflight_bytes_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t writable_watermark_ = 0;
  HandlerSlot<void()> on_writable_;

  // Congestion control (kTcp; idle under kFlow). cwnd_/ssthresh_ are
  // byte-counted; ca_credit_ accumulates acked bytes in congestion
  // avoidance until a full cwnd has been acked (≈ +1 MSS per RTT), keeping
  // the growth rule in integer arithmetic for bit-identical replays.
  std::uint64_t cwnd_ = 0;
  std::uint64_t ssthresh_ = 0;
  std::uint64_t ca_credit_ = 0;
  std::uint64_t last_cumulative_ = 0;  // highest cumulative ack seen
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  std::uint64_t recovery_point_ = 0;  // NewReno: recovery ends at this seq

  // Receiver. Out-of-order messages, sorted by *descending* seq so the
  // next one due sits at the back.
  struct Parked {
    std::uint64_t seq;
    Message message;
  };
  std::uint64_t expected_seq_ = 1;
  std::vector<Parked> reorder_;

  // RTT / RTO state.
  double srtt_s_ = 0.0;
  double rttvar_s_ = 0.0;
  bool have_rtt_ = false;
  int backoff_ = 0;  // exponent applied to rto on consecutive timeouts
  int consecutive_timeouts_ = 0;  // RTOs since the last acked progress

  // Retransmission timer. The pending event is tracked by id and cancelled
  // on teardown and when re-armed earlier: a churning swarm aborts
  // thousands of sockets whose RTO events (up to kMaxRto out) would
  // otherwise sit dead in the kernel heap. Stale fires are additionally
  // ignored via armed_until_.
  bool timer_armed_ = false;
  SimTime armed_until_;
  sim::EventId timer_event_;
  /// Time of the last cumulative-ack progress. The transport network is
  /// per-flow FIFO, so as long as acks arrive the window is draining and a
  /// retransmission would be spurious; the RTO counts from the *later* of
  /// the oldest send and the last progress (ack-silence-based loss
  /// detection, immune to queueing delay).
  SimTime last_progress_;

  // Handshake.
  SimTime syn_sent_at_;
  int syn_retries_ = 0;
  std::function<void(StreamSocketPtr)> on_connected_;
  VoidHandler on_connect_fail_;

  HandlerSlot<void(Message&&)> on_message_;
  HandlerSlot<void()> on_close_;
  /// Installed by the owner (listener/manager) to drop demux entries.
  VoidHandler on_teardown_;
  /// Client sockets keep themselves alive from connect() until the
  /// application receives them (or the connect fails).
  StreamSocketPtr self_ref_;

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

/// A listening socket producing accepted StreamSockets.
class Listener final : public SocketManager::Endpoint,
                       public std::enable_shared_from_this<Listener> {
 public:
  using AcceptHandler = std::function<void(StreamSocketPtr)>;

  ~Listener() override;

  Ipv4Addr local_ip() const { return local_ip_; }
  std::uint16_t local_port() const { return local_port_; }
  size_t connection_count() const { return conns_.size(); }

  /// Stop accepting new connections (existing ones keep running).
  void stop_accepting() { accepting_ = false; }

  void handle_packet(net::Packet&& packet) override;
  void abort_for_crash() override;

 private:
  friend class SocketApi;
  Listener(SocketManager& mgr, net::Host& host, Ipv4Addr ip,
           std::uint16_t port, AcceptHandler on_accept);

  static std::uint64_t conn_key(Ipv4Addr remote, std::uint16_t port) {
    return (std::uint64_t{remote.to_u32()} << 16) | port;
  }

  SocketManager& mgr_;
  net::Host& host_;
  Ipv4Addr local_ip_;
  std::uint16_t local_port_;
  bool accepting_ = true;
  bool bound_ = true;  // false once abort_for_crash unbound the port
  AcceptHandler on_accept_;
  std::unordered_map<std::uint64_t, StreamSocketPtr> conns_;
};

/// A connectionless datagram socket (the paper notes the interception
/// approach "is possible for UDP" — the same $BINDIP rewrite applies to
/// the explicit bind). No reliability: what the pipes drop stays dropped.
class DatagramSocket final
    : public SocketManager::Endpoint,
      public std::enable_shared_from_this<DatagramSocket> {
 public:
  /// (message, source address, source port)
  using DatagramHandler =
      std::function<void(Message&&, Ipv4Addr, std::uint16_t)>;

  ~DatagramSocket() override;

  void send_to(Ipv4Addr remote, std::uint16_t remote_port, Message message);
  void on_message(DatagramHandler handler) { handler_ = std::move(handler); }
  void close();

  Ipv4Addr local_ip() const { return local_ip_; }
  std::uint16_t local_port() const { return local_port_; }
  std::uint64_t datagrams_sent() const { return sent_; }
  std::uint64_t datagrams_received() const { return received_; }

  void handle_packet(net::Packet&& packet) override;
  void abort_for_crash() override { close(); }

 private:
  friend class SocketApi;
  DatagramSocket(SocketManager& mgr, net::Host& host, Ipv4Addr ip,
                 std::uint16_t port);

  SocketManager& mgr_;
  net::Host& host_;
  Ipv4Addr local_ip_;
  std::uint16_t local_port_;
  bool open_ = true;
  std::uint64_t flow_;
  HandlerSlot<void(Message&&, Ipv4Addr, std::uint16_t)> handler_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

/// Modeled UDP/IP header overhead per datagram.
inline constexpr std::uint64_t kUdpHeaderBytes = 28;

/// The BSD-call surface bound to one virtual node's process. Calls charge
/// the modeled syscall costs to the host CPU and route through the
/// interception layer, exactly as on the real platform.
class SocketApi {
 public:
  SocketApi(SocketManager& mgr, vnode::Process& process)
      : mgr_(mgr), process_(process) {}

  /// The address this process's sockets bind to (via $BINDIP when the
  /// interception applies; the host's primary address otherwise).
  Ipv4Addr effective_bind_address() const;

  /// Asynchronous connect(); exactly one of the callbacks fires.
  void connect(Ipv4Addr remote, std::uint16_t remote_port,
               std::function<void(StreamSocketPtr)> on_connected,
               std::function<void()> on_fail = {});

  /// listen()+accept() loop: `on_accept` fires per inbound connection.
  ListenerPtr listen(std::uint16_t port, Listener::AcceptHandler on_accept);

  /// UDP socket bound via the interception layer; port 0 picks an
  /// ephemeral port.
  DatagramSocketPtr udp_bind(std::uint16_t port = 0);

  vnode::Process& process() { return process_; }

 private:
  SocketManager& mgr_;
  vnode::Process& process_;
};

}  // namespace p2plab::sockets
