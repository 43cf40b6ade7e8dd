// The unit of traffic through the emulated network.
//
// A Packet models one transport segment (up to a whole application message;
// the pipes serialize it proportionally to wire_size, which approximates a
// burst of MTU-sized frames back to back). A packet carries no code:
// delivery goes through the destination network's socket demux, which the
// sockets layer installs once per network (per shard), so a packet is plain
// data that can cross shards by value.
//
// A data segment or datagram carries its application message in place: the
// message's type in `msg_type`, its body in `body`, and its size as
// wire_size minus the transport's modeled header. The receiving socket
// rebuilds the sockets::Message from these three fields, so a message
// crosses the network with no allocation of its own.
#pragma once

#include <cstdint>
#include <memory>

#include "common/ipv4.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "ipfw/pipe.hpp"

namespace p2plab::net {

class PacketPool;

/// Transport-level packet kinds; opaque to the network layer.
enum class PacketKind : std::uint8_t {
  kDatagram = 0,  // fire-and-forget (ping probes, raw sends)
  kSyn,
  kSynAck,
  kData,
  kAck,
  kFin,
  kRst,  // no endpoint at the destination port (ECONNRESET/ECONNREFUSED)
};

struct Packet {
  Ipv4Addr src;
  Ipv4Addr dst;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  /// Application message type of a data segment or datagram (opaque to the
  /// network; it fills the padding before wire_size).
  std::uint32_t msg_type = 0;
  /// Bytes on the wire (payload plus modeled header overhead).
  DataSize wire_size = DataSize::bytes(64);
  /// Flow identity for fair queueing within pipes (connection id).
  ipfw::FlowId flow = 0;

  PacketKind kind = PacketKind::kDatagram;
  std::uint64_t conn = 0;  // connection id (stream transport)
  std::uint64_t seq = 0;   // sequence / cumulative-ack number

  /// Application message body, if any (sockets::Message::body, shared
  /// with the sender's retransmission copy). Stored type-erased; the
  /// receiving application knows the concrete type from msg_type.
  std::shared_ptr<const void> body;

  /// Fixed pipe delay accumulated but not yet served. Source-side pipes
  /// defer their config delay into the packet so the fabric handoff stamp
  /// carries it; it is spent when the destination shard schedules the
  /// arrival. Zero on loopback, whose pipes serve their delays in place.
  Duration deferred_delay = Duration::zero();

  /// Stamped by Network::send; used for RTT estimation and diagnostics.
  SimTime sent_at;

  /// Pool bookkeeping (see net/packet_pool.hpp): the pool owning this cell,
  /// maintained by PacketPool::acquire and cleared when the pool dies first.
  /// Null for stack-constructed packets. Not for application use.
  PacketPool* origin_pool = nullptr;
};

// Every hop moves packets by value and the pool keeps them in slab cells:
// adding a field must not grow the struct past these 96 bytes.
static_assert(sizeof(Packet) == 96, "net::Packet must stay 96 bytes");

}  // namespace p2plab::net
