#include "topology/topology.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace p2plab::topology {

LinkClass dsl_2m() {
  return {.down = Bandwidth::mbps(2),
          .up = Bandwidth::kbps(128),
          .latency = Duration::ms(30)};
}
LinkClass modem_56k() {
  return {.down = Bandwidth::kbps(56),
          .up = Bandwidth::bps(33600),
          .latency = Duration::ms(100)};
}
LinkClass dsl_512k() {
  return {.down = Bandwidth::kbps(512),
          .up = Bandwidth::kbps(128),
          .latency = Duration::ms(40)};
}
LinkClass dsl_8m() {
  return {.down = Bandwidth::mbps(8),
          .up = Bandwidth::mbps(1),
          .latency = Duration::ms(20)};
}
LinkClass sym_10m() {
  return {.down = Bandwidth::mbps(10),
          .up = Bandwidth::mbps(10),
          .latency = Duration::ms(5)};
}
LinkClass sym_1m() {
  return {.down = Bandwidth::mbps(1),
          .up = Bandwidth::mbps(1),
          .latency = Duration::ms(10)};
}

ZoneId Topology::add_zone(std::string name, CidrBlock subnet,
                          std::size_t node_count, LinkClass link) {
  P2PLAB_ASSERT_MSG(node_count < subnet.size(),
                    "subnet too small for node count");
  for (const Zone& other : zones_) {
    if (other.node_count > 0) {
      P2PLAB_ASSERT_MSG(!other.subnet.overlaps(subnet) || node_count == 0,
                        "node zones must be disjoint");
    }
  }
  const std::size_t prev_total = total_nodes();
  zones_.push_back(Zone{std::move(name), subnet, node_count, link});
  node_zone_begin_.push_back(prev_total);
  return zones_.size() - 1;
}

ZoneId Topology::add_container(std::string name, CidrBlock subnet) {
  zones_.push_back(Zone{std::move(name), subnet, 0, LinkClass{}});
  node_zone_begin_.push_back(total_nodes());
  return zones_.size() - 1;
}

void Topology::add_latency(ZoneId a, ZoneId b, Duration latency) {
  P2PLAB_ASSERT(a < zones_.size() && b < zones_.size() && a != b);
  P2PLAB_ASSERT_MSG(!zones_[a].subnet.overlaps(zones_[b].subnet),
                    "latency pair zones must be disjoint");
  latencies_.push_back(LatencyPair{a, b, latency});
}

std::size_t Topology::total_nodes() const {
  std::size_t total = 0;
  for (const Zone& z : zones_) total += z.node_count;
  return total;
}

ZoneId Topology::zone_of_node(std::size_t node_index) const {
  P2PLAB_ASSERT(node_index < total_nodes());
  // Zones are few; linear scan over prefix sums.
  for (std::size_t z = zones_.size(); z-- > 0;) {
    if (zones_[z].node_count > 0 && node_zone_begin_[z] <= node_index &&
        node_index < node_zone_begin_[z] + zones_[z].node_count) {
      return z;
    }
  }
  P2PLAB_ASSERT_MSG(false, "node index out of range");
}

Ipv4Addr Topology::node_address(std::size_t node_index) const {
  const ZoneId z = zone_of_node(node_index);
  const std::size_t offset = node_index - node_zone_begin_[z];
  // Host numbering starts at .1 (the .0 base is the network address).
  return zones_[z].subnet.host(static_cast<std::uint32_t>(offset + 1));
}

std::optional<std::size_t> Topology::node_index(Ipv4Addr addr) const {
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    const Zone& zone = zones_[z];
    if (zone.node_count == 0 || !zone.subnet.contains(addr)) continue;
    const std::uint32_t host = addr.to_u32() - zone.subnet.base().to_u32();
    if (host >= 1 && host <= zone.node_count) {
      return node_zone_begin_[z] + host - 1;
    }
  }
  return std::nullopt;
}

std::optional<ZoneId> Topology::zone_of(Ipv4Addr addr) const {
  std::optional<ZoneId> best;
  for (std::size_t z = 0; z < zones_.size(); ++z) {
    if (!zones_[z].subnet.contains(addr)) continue;
    if (!best || zones_[z].subnet.prefix_len() >
                     zones_[*best].subnet.prefix_len()) {
      best = z;
    }
  }
  return best;
}

const LinkClass& Topology::link_of_node(std::size_t node_index) const {
  return zones_[zone_of_node(node_index)].link;
}

std::optional<Duration> Topology::inter_zone_latency(Ipv4Addr src,
                                                     Ipv4Addr dst) const {
  // Most specific declared pair matching (src, dst); specificity is the
  // combined prefix length, mirroring how the compiled rules are ordered.
  std::optional<Duration> best;
  int best_specificity = -1;
  for (const LatencyPair& pair : latencies_) {
    const Zone& za = zones_[pair.a];
    const Zone& zb = zones_[pair.b];
    const bool forward = za.subnet.contains(src) && zb.subnet.contains(dst);
    const bool reverse = zb.subnet.contains(src) && za.subnet.contains(dst);
    if (!forward && !reverse) continue;
    const int specificity =
        za.subnet.prefix_len() + zb.subnet.prefix_len();
    if (specificity > best_specificity) {
      best_specificity = specificity;
      best = pair.latency;
    }
  }
  return best;
}

Duration Topology::min_access_latency() const {
  Duration min = Duration::max();
  for (const Zone& zone : zones_) {
    if (zone.node_count > 0) min = std::min(min, zone.link.latency);
  }
  return min == Duration::max() ? Duration::zero() : min;
}

Topology homogeneous_dsl(std::size_t nodes, LinkClass link) {
  Topology topo;
  topo.add_zone("swarm", *CidrBlock::parse("10.0.0.0/16"), nodes, link);
  return topo;
}

Topology figure7() {
  Topology topo;
  const ZoneId isp1 =
      topo.add_container("10.1.0.0/16", *CidrBlock::parse("10.1.0.0/16"));
  const ZoneId isp1a = topo.add_zone(
      "10.1.1.0/24", *CidrBlock::parse("10.1.1.0/24"), 250, modem_56k());
  const ZoneId isp1b = topo.add_zone(
      "10.1.2.0/24", *CidrBlock::parse("10.1.2.0/24"), 250, dsl_512k());
  const ZoneId isp1c = topo.add_zone(
      "10.1.3.0/24", *CidrBlock::parse("10.1.3.0/24"), 250, dsl_8m());
  const ZoneId g2 = topo.add_zone(
      "10.2.0.0/16", *CidrBlock::parse("10.2.0.0/16"), 1000, sym_10m());
  const ZoneId g3 = topo.add_zone(
      "10.3.0.0/16", *CidrBlock::parse("10.3.0.0/16"), 1000, sym_1m());

  // 100 ms between the three ISP subnets.
  topo.add_latency(isp1a, isp1b, Duration::ms(100));
  topo.add_latency(isp1a, isp1c, Duration::ms(100));
  topo.add_latency(isp1b, isp1c, Duration::ms(100));
  // Continental latencies between the top-level groups.
  topo.add_latency(isp1, g2, Duration::ms(400));
  topo.add_latency(isp1, g3, Duration::ms(600));
  topo.add_latency(g2, g3, Duration::sec(1));
  return topo;
}

}  // namespace p2plab::topology
