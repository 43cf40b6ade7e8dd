// The peer wire protocol: message kinds and exact wire sizes.
//
// Payload bytes are never materialized (the content is synthetic), but
// every message is accounted at its real protocol size, so bandwidth
// dynamics match the real client's.
#pragma once

#include <cstdint>
#include <memory>

#include "bittorrent/bitfield.hpp"
#include "bittorrent/metainfo.hpp"
#include "sockets/message.hpp"

namespace p2plab::bt {

enum class MsgType : std::uint32_t {
  kHandshake = 1,
  kChoke,
  kUnchoke,
  kInterested,
  kNotInterested,
  kHave,
  kBitfield,
  kRequest,
  kPiece,
  kCancel,
  // Tracker protocol (modeled over the same socket substrate; the real
  // client uses HTTP, sized equivalently).
  kTrackerAnnounce = 100,
  kTrackerResponse,
};

struct WireMsg {
  MsgType type = MsgType::kChoke;
  std::uint32_t piece = 0;      // have / request / piece / cancel
  std::uint32_t begin = 0;      // block byte offset within the piece
  std::uint32_t length = 0;     // request/piece block length
  Bitfield bitfield;            // kBitfield only
  std::uint64_t info_hash = 0;  // kHandshake only: the torrent id
  std::uint32_t peer_id = 0;    // kHandshake only
};

/// Exact size of a message on the wire (BitTorrent protocol framing).
inline std::uint32_t wire_size(const WireMsg& m) {
  switch (m.type) {
    case MsgType::kHandshake:
      // 1 + 19 + 8 + 20 + 20: the real protocol's 20-byte infohash and
      // peer id, though the model carries both in fewer bytes.
      return 68;
    case MsgType::kChoke:
    case MsgType::kUnchoke:
    case MsgType::kInterested:
    case MsgType::kNotInterested:
      return 5;  // length prefix + id
    case MsgType::kHave:
      return 9;
    case MsgType::kBitfield:
      return 5 + m.bitfield.wire_bytes();
    case MsgType::kRequest:
    case MsgType::kCancel:
      return 17;
    case MsgType::kPiece:
      return 13 + m.length;
    default:
      return 0;  // tracker messages size themselves (tracker.hpp)
  }
}

/// Wrap a wire message for the socket layer.
inline sockets::Message to_socket_message(WireMsg msg) {
  sockets::Message out;
  out.type = static_cast<std::uint32_t>(msg.type);
  out.size = DataSize::bytes(wire_size(msg));
  out.body = std::make_shared<const WireMsg>(std::move(msg));
  return out;
}

}  // namespace p2plab::bt
