#include "topology/topology.hpp"

#include <gtest/gtest.h>

#include <set>

namespace p2plab::topology {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

TEST(LinkClasses, PaperProfiles) {
  EXPECT_EQ(dsl_2m().down, Bandwidth::mbps(2));
  EXPECT_EQ(dsl_2m().up, Bandwidth::kbps(128));
  EXPECT_EQ(dsl_2m().latency, Duration::ms(30));
  EXPECT_EQ(modem_56k().up, Bandwidth::bps(33600));
  EXPECT_EQ(dsl_8m().down, Bandwidth::mbps(8));
  EXPECT_EQ(sym_10m().down, sym_10m().up);
}

TEST(Topology, HomogeneousAddressing) {
  const Topology topo = homogeneous_dsl(160);
  EXPECT_EQ(topo.total_nodes(), 160u);
  EXPECT_EQ(topo.node_address(0), ip("10.0.0.1"));
  EXPECT_EQ(topo.node_address(159), ip("10.0.0.160"));
  EXPECT_EQ(topo.zone_of_node(0), topo.zone_of_node(159));
}

TEST(Topology, AddressesAreDistinct) {
  const Topology topo = homogeneous_dsl(1000);
  std::set<std::uint32_t> seen;
  for (std::size_t i = 0; i < 1000; ++i) {
    seen.insert(topo.node_address(i).to_u32());
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Topology, LargeSwarmCrossesOctetBoundary) {
  const Topology topo = homogeneous_dsl(5760);
  EXPECT_EQ(topo.node_address(255), ip("10.0.1.0"));
  EXPECT_EQ(topo.node_address(5759), ip("10.0.22.128"));
}

TEST(Topology, ZoneLookupMostSpecific) {
  const Topology topo = figure7();
  const auto z = topo.zone_of(ip("10.1.3.207"));
  ASSERT_TRUE(z.has_value());
  EXPECT_EQ(topo.zones()[*z].name, "10.1.3.0/24");  // not the /16 container
  EXPECT_FALSE(topo.zone_of(ip("10.9.0.1")).has_value());
}

TEST(Figure7, Structure) {
  const Topology topo = figure7();
  EXPECT_EQ(topo.total_nodes(), 250u + 250 + 250 + 1000 + 1000);
  EXPECT_EQ(topo.zones().size(), 6u);  // 1 container + 5 node zones
  EXPECT_EQ(topo.latencies().size(), 6u);
}

TEST(Figure7, NodeAddressesMatchPaper) {
  const Topology topo = figure7();
  // 10.1.3.207 is the 207th node of the third ISP subnet.
  const std::size_t idx_13_207 = 250 + 250 + 206;
  EXPECT_EQ(topo.node_address(idx_13_207), ip("10.1.3.207"));
  // 10.2.2.117 is node offset 2*256+117-1 = 628 of the 10.2.0.0/16 zone.
  const std::size_t idx_22_117 = 750 + 2 * 256 + 117 - 1;
  EXPECT_EQ(topo.node_address(idx_22_117), ip("10.2.2.117"));
}

TEST(Figure7, NodeIndexInvertsNodeAddress) {
  const Topology topo = figure7();
  for (const std::size_t i : {0u, 249u, 706u, 750u, 2749u}) {
    EXPECT_EQ(topo.node_index(topo.node_address(i)), i);
  }
  // Network addresses, container-only space and unused hosts are no node.
  EXPECT_FALSE(topo.node_index(*Ipv4Addr::parse("10.1.1.0")).has_value());
  EXPECT_FALSE(topo.node_index(*Ipv4Addr::parse("10.1.4.1")).has_value());
  EXPECT_FALSE(topo.node_index(*Ipv4Addr::parse("10.1.1.251")).has_value());
}

TEST(Figure7, InterZoneLatencies) {
  const Topology topo = figure7();
  // Within the ISP: 100 ms between subnets, none within one subnet.
  EXPECT_EQ(*topo.inter_zone_latency(ip("10.1.3.207"), ip("10.1.1.5")),
            Duration::ms(100));
  EXPECT_FALSE(
      topo.inter_zone_latency(ip("10.1.3.207"), ip("10.1.3.5")).has_value());
  // Continental distances.
  EXPECT_EQ(*topo.inter_zone_latency(ip("10.1.3.207"), ip("10.2.2.117")),
            Duration::ms(400));
  EXPECT_EQ(*topo.inter_zone_latency(ip("10.2.2.117"), ip("10.1.3.207")),
            Duration::ms(400));
  EXPECT_EQ(*topo.inter_zone_latency(ip("10.1.1.1"), ip("10.3.0.5")),
            Duration::ms(600));
  EXPECT_EQ(*topo.inter_zone_latency(ip("10.2.0.1"), ip("10.3.0.1")),
            Duration::sec(1));
}

TEST(Figure7, LinkClassesPerZone) {
  const Topology topo = figure7();
  EXPECT_EQ(topo.link_of_node(0).down, Bandwidth::kbps(56));     // 10.1.1.x
  EXPECT_EQ(topo.link_of_node(250).down, Bandwidth::kbps(512));  // 10.1.2.x
  EXPECT_EQ(topo.link_of_node(500).down, Bandwidth::mbps(8));    // 10.1.3.x
  EXPECT_EQ(topo.link_of_node(750).down, Bandwidth::mbps(10));   // 10.2.x
  EXPECT_EQ(topo.link_of_node(1750).down, Bandwidth::mbps(1));   // 10.3.x
}

TEST(Topology, RejectsOverlappingNodeZones) {
  Topology topo;
  topo.add_zone("a", *CidrBlock::parse("10.0.0.0/24"), 10, dsl_2m());
  EXPECT_DEATH(
      topo.add_zone("b", *CidrBlock::parse("10.0.0.0/16"), 10, dsl_2m()),
      "disjoint");
}

TEST(Topology, RejectsOverfullZone) {
  Topology topo;
  EXPECT_DEATH(
      topo.add_zone("a", *CidrBlock::parse("10.0.0.0/28"), 100, dsl_2m()),
      "too small");
}

TEST(Topology, RejectsOverlappingLatencyPair) {
  Topology topo = figure7();
  // Zone 0 is the 10.1.0.0/16 container, zone 1 is 10.1.1.0/24 inside it.
  EXPECT_DEATH(topo.add_latency(0, 1, Duration::ms(5)), "disjoint");
}

}  // namespace
}  // namespace p2plab::topology
