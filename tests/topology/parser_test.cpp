#include "topology/parser.hpp"

#include <gtest/gtest.h>

namespace p2plab::topology {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

constexpr const char* kFigure7Text = R"(
# The paper's Figure 7 topology.
container isp1 10.1.0.0/16
zone modems 10.1.1.0/24 nodes=250 down=56k  up=33600 latency=100ms
zone dsl    10.1.2.0/24 nodes=250 down=512k up=128k  latency=40ms
zone fast   10.1.3.0/24 nodes=250 down=8M   up=1M    latency=20ms
zone g2     10.2.0.0/16 nodes=1000 down=10M up=10M   latency=5ms
zone g3     10.3.0.0/16 nodes=1000 down=1M  up=1M    latency=10ms
latency modems dsl 100ms
latency modems fast 100ms
latency dsl fast 100ms
latency isp1 g2 400ms
latency isp1 g3 600ms
latency g2 g3 1s
)";

TEST(ParseBandwidth, UnitsAndErrors) {
  EXPECT_EQ(*text::parse_bandwidth("56k"), Bandwidth::kbps(56));
  EXPECT_EQ(*text::parse_bandwidth("512K"), Bandwidth::kbps(512));
  EXPECT_EQ(*text::parse_bandwidth("2M"), Bandwidth::mbps(2));
  EXPECT_EQ(*text::parse_bandwidth("1G"), Bandwidth::gbps(1));
  EXPECT_EQ(*text::parse_bandwidth("33600"), Bandwidth::bps(33600));
  EXPECT_EQ(*text::parse_bandwidth("1.5M"), Bandwidth::bps(1500000));
  EXPECT_TRUE(text::parse_bandwidth("unlimited")->is_unlimited());
  EXPECT_FALSE(text::parse_bandwidth("").has_value());
  EXPECT_FALSE(text::parse_bandwidth("fast").has_value());
  EXPECT_FALSE(text::parse_bandwidth("-2M").has_value());
  EXPECT_FALSE(text::parse_bandwidth("M").has_value());
}

TEST(ParseDuration, UnitsAndErrors) {
  constexpr auto kMs = text::BareUnit::kMillis;
  EXPECT_EQ(*text::parse_duration("30ms", kMs), Duration::ms(30));
  EXPECT_EQ(*text::parse_duration("1s", kMs), Duration::sec(1));
  EXPECT_EQ(*text::parse_duration("2.5s", kMs), Duration::ms(2500));
  EXPECT_EQ(*text::parse_duration("250us", kMs), Duration::us(250));
  EXPECT_EQ(*text::parse_duration("400", kMs), Duration::ms(400));  // bare = ms
  EXPECT_FALSE(text::parse_duration("", kMs).has_value());
  EXPECT_FALSE(text::parse_duration("soon", kMs).has_value());
  EXPECT_FALSE(text::parse_duration("-1s", kMs).has_value());
}

TEST(ParseTopology, Figure7RoundTrip) {
  const auto result = parse_topology(kFigure7Text);
  ASSERT_TRUE(result.topology.has_value()) << result.error;
  const Topology& parsed = *result.topology;
  const Topology reference = figure7();

  EXPECT_EQ(parsed.total_nodes(), reference.total_nodes());
  EXPECT_EQ(parsed.zones().size(), reference.zones().size());
  EXPECT_EQ(parsed.latencies().size(), reference.latencies().size());
  // Spot-check semantics: addresses and effective latencies agree.
  EXPECT_EQ(parsed.node_address(250 + 250 + 206), ip("10.1.3.207"));
  EXPECT_EQ(*parsed.inter_zone_latency(ip("10.1.3.207"), ip("10.2.2.117")),
            Duration::ms(400));
  EXPECT_EQ(*parsed.inter_zone_latency(ip("10.2.0.1"), ip("10.3.0.1")),
            Duration::sec(1));
  EXPECT_EQ(parsed.link_of_node(0).up, Bandwidth::bps(33600));
}

TEST(ParseTopology, CommentsAndBlankLines) {
  const auto result = parse_topology(
      "# just a comment\n\n"
      "zone a 10.0.0.0/24 nodes=3 down=2M up=128k latency=30ms # inline\n"
      // '#' ends the line even inside a token, as in every experiment file.
      "zone b 10.1.0.0/24 nodes=2 down=2M up=128k latency=7ms#x loss=0.5\n");
  ASSERT_TRUE(result.topology.has_value()) << result.error;
  EXPECT_EQ(result.topology->total_nodes(), 5u);
  EXPECT_EQ(result.topology->zones()[1].link.latency, Duration::ms(7));
  EXPECT_EQ(result.topology->zones()[1].link.loss_rate, 0.0);
}

TEST(ParseTopology, LossAttribute) {
  const auto result = parse_topology(
      "zone a 10.0.0.0/24 nodes=3 down=2M up=128k latency=30ms loss=0.01\n");
  ASSERT_TRUE(result.topology.has_value()) << result.error;
  EXPECT_DOUBLE_EQ(result.topology->zones()[0].link.loss_rate, 0.01);
}

TEST(ParseTopology, ErrorsCarryLineNumbers) {
  const auto cases = {
      std::make_pair("zone a 10.0.0.0/24 nodes=3 down=2M up=128k\n",
                     "line 1"),                                   // no latency
      std::make_pair("frobnicate\n", "unknown directive"),
      std::make_pair("zone a bad-cidr nodes=3 down=2M up=1M latency=1ms\n",
                     "bad CIDR"),
      std::make_pair("latency a b 5ms\n", "unknown zone"),
      std::make_pair("zone a 10.0.0.0/30 nodes=9 down=2M up=1M latency=1ms\n",
                     "too small"),
      std::make_pair("", "no nodes"),
      // Each of these used to parse and then abort the run or change it:
      // NaN, values past their 64-bit field, a truncated fractional count,
      // a repeated attribute where the last one won.
      std::make_pair("zone a 10.0.0.0/24 nodes=3 down=2M up=1M latency=nan\n",
                     "line 1: bad duration 'nan'"),
      std::make_pair(
          "zone a 10.0.0.0/24 nodes=3 down=2M up=1M latency=1ms loss=nan\n",
          "line 1: bad value 'nan' for loss"),
      std::make_pair(
          "zone a 10.0.0.0/24 nodes=3 down=2M up=1M latency=1e30s\n",
          "line 1: bad duration '1e30s'"),
      std::make_pair(
          "zone a 10.0.0.0/24 nodes=3 down=1e30G up=1M latency=1ms\n",
          "line 1: bad bandwidth '1e30G'"),
      std::make_pair(
          "zone a 10.0.0.0/24 nodes=5.7 down=2M up=1M latency=1ms\n",
          "line 1: bad count '5.7'"),
      std::make_pair(
          "zone a 10.0.0.0/24 nodes=3 down=1M down=2M up=1M latency=1ms\n",
          "line 1: duplicate key 'down' in zone"),
      std::make_pair(
          "zone a 10.0.0.0/24 nodes=3 down=2M up=1M latency=1ms "
          "burst=0.1:nan\n",
          "line 1: bad burst"),
      std::make_pair("zone a 10.0.0.0/24 nodes=3 down=2M up=1M latency=1ms\n"
                     "zone b 10.1.0.0/24 nodes=3 down=2M up=1M latency=1ms\n"
                     "latency a b 1e300\n",
                     "line 3: bad latency '1e300'"),
  };
  for (const auto& [text, expected] : cases) {
    const auto result = parse_topology(text);
    EXPECT_FALSE(result.topology.has_value()) << text;
    EXPECT_NE(result.error.find(expected), std::string::npos)
        << "got: " << result.error;
  }
}

TEST(ParseTopology, RejectsDuplicateNames) {
  const auto result = parse_topology(
      "zone a 10.0.0.0/24 nodes=1 down=1M up=1M latency=1ms\n"
      "zone a 10.1.0.0/24 nodes=1 down=1M up=1M latency=1ms\n");
  EXPECT_FALSE(result.topology.has_value());
  EXPECT_NE(result.error.find("duplicate"), std::string::npos);
}

TEST(ParseTopology, RejectsOverlappingZones) {
  const auto result = parse_topology(
      "zone a 10.0.0.0/16 nodes=1 down=1M up=1M latency=1ms\n"
      "zone b 10.0.1.0/24 nodes=1 down=1M up=1M latency=1ms\n");
  EXPECT_FALSE(result.topology.has_value());
  EXPECT_NE(result.error.find("overlaps"), std::string::npos);
}

TEST(ParseTopology, RejectsOverlappingLatencyPair) {
  const auto result = parse_topology(
      "container c 10.0.0.0/8\n"
      "zone a 10.0.0.0/24 nodes=1 down=1M up=1M latency=1ms\n"
      "latency c a 5ms\n");
  EXPECT_FALSE(result.topology.has_value());
  EXPECT_NE(result.error.find("overlap"), std::string::npos);
}

}  // namespace
}  // namespace p2plab::topology
