// Application messages carried by stream and datagram sockets.
//
// The emulation exchanges *typed* messages instead of raw byte buffers:
// `size` is what goes on the wire (the pipes serialize it), `body` is the
// in-memory payload handed to the receiving application. This keeps the
// 5760-node runs affordable — no payload bytes are copied through the
// simulated network — while preserving exact byte accounting.
//
// The socket layer adds no allocation per message: a sent message's type
// and body ride the net::Packet itself (msg_type, body) and its size is the
// packet's wire_size less the header, so the receiver gets the very body
// object the sender made. The application's `body` is the one allocation a
// message costs.
#pragma once

#include <cstdint>
#include <memory>

#include "common/units.hpp"

namespace p2plab::sockets {

struct Message {
  /// Application-level tag (protocol message id); opaque to the transport.
  std::uint32_t type = 0;
  /// Application payload bytes on the wire.
  DataSize size = DataSize::zero();
  /// In-memory payload; the receiver knows the concrete type from `type`.
  std::shared_ptr<const void> body;

  template <typename T>
  const T& as() const {
    return *static_cast<const T*>(body.get());
  }
};

/// Modeled per-segment header overhead (TCP/IP headers).
inline constexpr std::uint64_t kHeaderBytes = 40;

}  // namespace p2plab::sockets
