#include "bittorrent/tracker.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/platform.hpp"

namespace p2plab::bt {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

AnnounceRequest announce_from(Ipv4Addr peer_ip, std::uint64_t info_hash,
                              AnnounceEvent event = AnnounceEvent::kStarted) {
  AnnounceRequest req;
  req.info_hash = info_hash;
  req.peer = PeerInfo{peer_ip, 6881};
  req.event = event;
  req.numwant = 50;
  return req;
}

class TrackerPolicyTest : public ::testing::Test {
 protected:
  core::Platform platform{topology::homogeneous_dsl(2),
                          core::PlatformConfig{.physical_nodes = 1,
                                               .pin_workers = false}};
  Tracker tracker{platform.api(0), Rng{1}};
  std::uint64_t torrent = 0xa;
};

TEST_F(TrackerPolicyTest, RegistersAndSamples) {
  for (std::uint32_t i = 1; i <= 10; ++i) {
    tracker.handle_announce(
        announce_from(ip("10.0.0.0").offset(i), torrent));
  }
  EXPECT_EQ(tracker.swarm_size(torrent), 10u);

  const auto resp = tracker.handle_announce(
      announce_from(ip("10.0.0.0").offset(1), torrent,
                    AnnounceEvent::kPeriodic));
  // 9 other peers known; the requester itself is excluded.
  EXPECT_EQ(resp.peers.size(), 9u);
  for (const PeerInfo& p : resp.peers) {
    EXPECT_NE(p.ip, ip("10.0.0.1"));
  }
}

TEST_F(TrackerPolicyTest, NumwantCapsResponse) {
  for (std::uint32_t i = 1; i <= 80; ++i) {
    tracker.handle_announce(
        announce_from(ip("10.0.0.0").offset(i), torrent));
  }
  auto req = announce_from(ip("10.0.9.9"), torrent);
  req.numwant = 50;
  const auto resp = tracker.handle_announce(req);
  EXPECT_EQ(resp.peers.size(), 50u);
  std::set<std::uint32_t> unique;
  for (const PeerInfo& p : resp.peers) unique.insert(p.ip.to_u32());
  EXPECT_EQ(unique.size(), 50u);
}

TEST_F(TrackerPolicyTest, StoppedRemovesPeer) {
  tracker.handle_announce(announce_from(ip("10.0.0.1"), torrent));
  tracker.handle_announce(announce_from(ip("10.0.0.2"), torrent));
  tracker.handle_announce(
      announce_from(ip("10.0.0.1"), torrent, AnnounceEvent::kStopped));
  EXPECT_EQ(tracker.swarm_size(torrent), 1u);
}

TEST_F(TrackerPolicyTest, CompletedCountsSeeders) {
  tracker.handle_announce(announce_from(ip("10.0.0.1"), torrent));
  tracker.handle_announce(
      announce_from(ip("10.0.0.1"), torrent, AnnounceEvent::kCompleted));
  const auto resp =
      tracker.handle_announce(announce_from(ip("10.0.0.2"), torrent));
  EXPECT_EQ(resp.complete, 1u);
}

TEST_F(TrackerPolicyTest, SwarmsAreIsolatedByInfohash) {
  tracker.handle_announce(announce_from(ip("10.0.0.1"), torrent));
  tracker.handle_announce(announce_from(ip("10.0.0.2"), 0xb));
  const auto resp =
      tracker.handle_announce(announce_from(ip("10.0.0.3"), 0xb));
  ASSERT_EQ(resp.peers.size(), 1u);
  EXPECT_EQ(resp.peers[0].ip, ip("10.0.0.2"));
}

TEST_F(TrackerPolicyTest, DuplicateAnnouncesIdempotent) {
  for (int i = 0; i < 5; ++i) {
    tracker.handle_announce(announce_from(ip("10.0.0.1"), torrent,
                                          AnnounceEvent::kPeriodic));
  }
  EXPECT_EQ(tracker.swarm_size(torrent), 1u);
  EXPECT_EQ(tracker.announces_served(), 5u);
}

TEST(TrackerWire, AnnounceOverSockets) {
  // Full round trip over the emulated network.
  core::Platform platform(topology::homogeneous_dsl(3),
                          core::PlatformConfig{.physical_nodes = 1,
                                               .pin_workers = false});
  Tracker tracker(platform.api(0), Rng{1});
  tracker.start();
  const std::uint64_t torrent = 0xc;

  // Seed the swarm with one other peer.
  tracker.handle_announce(
      announce_from(platform.vnode(2).ip(), torrent));

  std::optional<AnnounceResponse> got;
  platform.api(1).connect(
      platform.vnode(0).ip(), 6969, [&](sockets::StreamSocketPtr sock) {
        sock->on_message([&, sock](sockets::Message&& msg) {
          got = msg.as<TrackerResponseMsg>().response;
          sock->close();
        });
        sockets::Message msg;
        msg.type = static_cast<std::uint32_t>(MsgType::kTrackerAnnounce);
        msg.size = announce_request_wire_size();
        msg.body = std::make_shared<const TrackerAnnounceMsg>(
            TrackerAnnounceMsg{announce_from(platform.vnode(1).ip(), torrent)});
        sock->send(std::move(msg));
      });
  platform.run(SimTime::max());
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->peers.size(), 1u);
  EXPECT_EQ(got->peers[0].ip, platform.vnode(2).ip());
  EXPECT_EQ(got->incomplete, 2u);  // both announcers, no seeder yet
}

TEST(TrackerWire, ResponseSizeScalesWithPeers) {
  EXPECT_EQ(announce_response_wire_size(0).count_bytes(), 120u);
  EXPECT_EQ(announce_response_wire_size(50).count_bytes(), 120u + 300u);
}

}  // namespace
}  // namespace p2plab::bt
