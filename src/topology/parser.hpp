// Text format for experiment topologies.
//
// The real P2PLab configures experiments from description files; this is
// our equivalent. One directive per line, in the shared grammar of every
// experiment file (common/text.hpp: '#' comments anywhere outside double
// quotes, key=value attributes, each given at most once):
//
//   zone <name> <cidr> nodes=<n> down=<bw> up=<bw> latency=<dur> [loss=<p>]
//        [burst=<p_good_bad>:<p_bad_good>[:<loss_bad>]]
//   container <name> <cidr>
//   latency <nameA> <nameB> <dur>
//
// Bandwidths accept 56k / 512k / 2M / 1G / plain bits-per-second, or
// `unlimited` (a pure delay element: no serialization); durations accept
// 30ms / 2s / 250us / plain milliseconds. Example — the paper's Figure 7
// topology:
//
//   container isp1 10.1.0.0/16
//   zone modems 10.1.1.0/24 nodes=250 down=56k  up=33600 latency=100ms
//   zone dsl    10.1.2.0/24 nodes=250 down=512k up=128k  latency=40ms
//   zone fast   10.1.3.0/24 nodes=250 down=8M   up=1M    latency=20ms
//   zone g2     10.2.0.0/16 nodes=1000 down=10M up=10M   latency=5ms
//   zone g3     10.3.0.0/16 nodes=1000 down=1M  up=1M    latency=10ms
//   latency modems dsl 100ms
//   latency modems fast 100ms
//   latency dsl fast 100ms
//   latency isp1 g2 400ms
//   latency isp1 g3 600ms
//   latency g2 g3 1s
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "common/text.hpp"
#include "topology/topology.hpp"

namespace p2plab::topology {

struct ParseResult {
  std::optional<Topology> topology;  // nullopt on error
  std::string error;                 // human-readable, with line number
};

/// Parse already-lexed lines; errors quote each line's own number (the
/// scenario parser hands over its inline [topology] block this way).
ParseResult parse_topology(std::span<const text::TokenLine> lines);

/// Lex `source`, then parse it.
ParseResult parse_topology(std::string_view source);

}  // namespace p2plab::topology
