// Network topology description: the paper's edge-centric Internet model.
//
// P2PLab does not emulate the Internet core; it models what an edge node
// sees: a shaped access link to its ISP (bandwidth up/down, latency,
// loss), plus latencies between *groups* of nodes (same ISP, country,
// continent). A Topology is therefore a set of zones — CIDR blocks that
// either contain nodes (with a link class) or merely group other zones —
// and a symmetric latency relation between zones.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/ipv4.hpp"
#include "common/time.hpp"
#include "common/units.hpp"

namespace p2plab::topology {

/// Access-link parameters of a node class (down/up follow ISP convention).
struct LinkClass {
  Bandwidth down = Bandwidth::mbps(2);
  Bandwidth up = Bandwidth::kbps(128);
  Duration latency = Duration::ms(30);
  double loss_rate = 0.0;
  /// Gilbert-Elliott bursty loss on the access link (zero transition
  /// probabilities = disabled). Kept as plain numbers so the topology layer
  /// stays independent of ipfw; Platform maps them onto the pipes.
  double burst_p_good_bad = 0.0;
  double burst_p_bad_good = 0.0;
  double burst_loss_bad = 1.0;
};

/// The paper's experimental DSL profile: 2 Mb/s down, 128 kb/s up, 30 ms.
LinkClass dsl_2m();
/// Figure 7 profiles.
LinkClass modem_56k();   // 56 kb/s down, 33.6 kb/s up, 100 ms
LinkClass dsl_512k();    // 512 kb/s down, 128 kb/s up, 40 ms
LinkClass dsl_8m();      // 8 Mb/s down, 1 Mb/s up, 20 ms
LinkClass sym_10m();     // 10 Mb/s symmetric, 5 ms
LinkClass sym_1m();      // 1 Mb/s symmetric, 10 ms

using ZoneId = std::size_t;

struct Zone {
  std::string name;
  CidrBlock subnet;
  /// Number of virtual nodes; 0 for container zones used only as a latency
  /// aggregate (e.g. 10.1.0.0/16 containing three ISP subnets).
  std::size_t node_count = 0;
  LinkClass link;
};

struct LatencyPair {
  ZoneId a;
  ZoneId b;
  Duration latency;
};

class Topology {
 public:
  /// Add a node zone. Node addresses are subnet.host(1..node_count).
  /// Node subnets must be pairwise disjoint and must fit the node count.
  ZoneId add_zone(std::string name, CidrBlock subnet, std::size_t node_count,
                  LinkClass link);
  /// Add a container zone (latency aggregate, no nodes of its own).
  ZoneId add_container(std::string name, CidrBlock subnet);

  /// Declare symmetric latency between two zones. The zone pair's subnets
  /// must be disjoint (a packet must match at most one pair rule).
  void add_latency(ZoneId a, ZoneId b, Duration latency);

  const std::vector<Zone>& zones() const { return zones_; }
  const std::vector<LatencyPair>& latencies() const { return latencies_; }

  /// Total virtual nodes across all zones.
  std::size_t total_nodes() const;

  /// Global node index -> address (zones in insertion order).
  Ipv4Addr node_address(std::size_t node_index) const;
  /// Address -> global node index; nullopt if no node has the address.
  std::optional<std::size_t> node_index(Ipv4Addr addr) const;
  /// Global node index -> its zone.
  ZoneId zone_of_node(std::size_t node_index) const;
  /// Address -> most specific zone containing it (if any).
  std::optional<ZoneId> zone_of(Ipv4Addr addr) const;
  /// The link class shaping `addr`'s access (from its node zone).
  const LinkClass& link_of_node(std::size_t node_index) const;

  /// The configured latency between the zones of two addresses: the most
  /// specific declared pair matching (src, dst), if any. This is what the
  /// compiled rule set will impose.
  std::optional<Duration> inter_zone_latency(Ipv4Addr src, Ipv4Addr dst) const;

  /// Minimum access-link latency over all node zones: a lower bound on the
  /// delay any inter-host packet pays at its source pipe, and therefore the
  /// parallel engine's lookahead (plus switch latency). Zero if the
  /// topology has no nodes.
  Duration min_access_latency() const;

 private:
  std::vector<Zone> zones_;
  std::vector<LatencyPair> latencies_;
  std::vector<std::size_t> node_zone_begin_;  // prefix sums of node counts
};

/// A small homogeneous swarm topology: `nodes` DSL nodes in 10.0.0.0/16
/// (the configuration of the paper's BitTorrent experiments).
Topology homogeneous_dsl(std::size_t nodes, LinkClass link = dsl_2m());

/// The exact emulated topology of Figure 7: three ISP subnets under
/// 10.1.0.0/16 (100 ms apart), 10.2.0.0/16 and 10.3.0.0/16 with 400/600 ms
/// to 10.1 and 1 s between each other.
Topology figure7();

}  // namespace p2plab::topology
