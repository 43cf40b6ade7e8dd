// Protocol-level tests of the BitTorrent client against small controlled
// swarms (the swarm_test.cpp suite covers end-to-end downloads; here we
// pin down individual mechanisms).
#include "bittorrent/client.hpp"

#include <gtest/gtest.h>

#include "bittorrent/swarm.hpp"
#include "core/platform.hpp"

namespace p2plab::bt {
namespace {

// Test platforms at K=1 run unpinned (`pin_workers = false`): a K=1
// worker auto-pins to the first CPU of the affinity mask, which every
// parallel ctest process would then share.

class ClientTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kVnodes = 8;  // tracker + up to 7 peers

  ClientTest()
      : platform(topology::homogeneous_dsl(kVnodes),
                 core::PlatformConfig{.physical_nodes = 2,
                                      .pin_workers = false}),
        meta(MetaInfo::make_synthetic(DataSize::kib(512), 3)),
        tracker(platform.api(0), platform.rng().fork(1)) {
    tracker.start();
  }

  std::unique_ptr<Client> make_client(std::size_t vnode, bool seed) {
    return std::make_unique<Client>(
        platform.sim_of_vnode(vnode), platform.api(vnode), meta,
        PeerInfo{platform.vnode(0).ip(), tracker.port()}, seed,
        platform.rng().fork(100 + vnode));
  }

  void run_for(int seconds) {
    platform.run(platform.now() + Duration::sec(seconds));
  }

  core::Platform platform;
  MetaInfo meta;
  Tracker tracker;
};

TEST_F(ClientTest, SeedAndLeecherConnectViaTracker) {
  auto seed = make_client(1, true);
  auto leech = make_client(2, false);
  seed->start();
  leech->start();
  run_for(30);
  EXPECT_EQ(seed->peer_count(), 1u);
  EXPECT_EQ(leech->peer_count(), 1u);
  EXPECT_EQ(tracker.swarm_size(meta.info_hash), 2u);
}

TEST_F(ClientTest, LeecherDownloadsAndBecomesSeed) {
  auto seed = make_client(1, true);
  auto leech = make_client(2, false);
  seed->start();
  leech->start();
  run_for(600);
  EXPECT_TRUE(leech->complete());
  EXPECT_TRUE(leech->has_completed());
  EXPECT_FALSE(seed->has_completed());  // initial seeds don't "complete"
  // The new seed announces completion to the tracker.
  EXPECT_GE(leech->stats().announces, 2u);  // started + completed
  // Progress trace ends at 100%.
  EXPECT_DOUBLE_EQ(leech->progress().last_value(), 100.0);
}

TEST_F(ClientTest, WrongInfohashPeerIsDropped) {
  auto seed = make_client(1, true);
  seed->start();
  // A client for a *different* torrent registers in its own swarm: the
  // tracker keys swarms by torrent id, so the two never meet through it.
  MetaInfo other = MetaInfo::make_synthetic(DataSize::kib(512), 99);
  ASSERT_NE(other.info_hash, meta.info_hash);
  Client stranger(platform.sim_of_vnode(2), platform.api(2), other,
                  PeerInfo{platform.vnode(0).ip(), tracker.port()}, false,
                  platform.rng().fork(7));
  stranger.start();

  // Raw dials to the seed's listener from two more vnodes, each opening
  // with a handshake: one names the other torrent, the control one this.
  struct Dial {
    sockets::StreamSocketPtr sock;
    bool closed = false;
  };
  auto dial = [&](std::size_t vnode, std::uint64_t info_hash, Dial& out) {
    platform.api(vnode).connect(
        platform.vnode(1).ip(), PeerInfo{}.port,  // the client's listen port
        [&out, info_hash](sockets::StreamSocketPtr sock) {
          out.sock = sock;
          sock->on_close([&out] { out.closed = true; });
          WireMsg handshake;
          handshake.type = MsgType::kHandshake;
          handshake.info_hash = info_hash;
          sock->send(to_socket_message(std::move(handshake)));
        },
        [] { FAIL() << "dial to the seed failed"; });
  };
  Dial wrong;
  dial(3, other.info_hash, wrong);
  run_for(10);
  ASSERT_NE(wrong.sock, nullptr);
  EXPECT_TRUE(wrong.closed);  // the seed hung up on the wrong torrent
  EXPECT_EQ(seed->peer_count(), 0u);
  EXPECT_EQ(tracker.swarm_size(meta.info_hash), 1u);
  EXPECT_EQ(tracker.swarm_size(other.info_hash), 1u);

  Dial right;
  dial(4, meta.info_hash, right);
  run_for(10);
  ASSERT_NE(right.sock, nullptr);
  EXPECT_FALSE(right.closed);
  EXPECT_EQ(seed->peer_count(), 1u);
  right.sock->on_close(nullptr);  // `right` dies before the platform
}

TEST_F(ClientTest, SeedIsNeverInterested) {
  auto seed = make_client(1, true);
  auto leech = make_client(2, false);
  seed->start();
  leech->start();
  run_for(15);  // mid-download (512 KiB at 128 kb/s takes ~33 s)
  ASSERT_FALSE(leech->complete());
  auto peers = seed->debug_peers();
  ASSERT_EQ(peers.size(), 1u);
  EXPECT_FALSE(peers[0].am_interested);
  EXPECT_TRUE(peers[0].peer_interested);  // the leecher wants data
}

TEST_F(ClientTest, LeecherLosesInterestWhenDone) {
  auto seed = make_client(1, true);
  auto leech = make_client(2, false);
  seed->start();
  leech->start();
  run_for(600);
  ASSERT_TRUE(leech->complete());
  for (const auto& p : leech->debug_peers()) {
    EXPECT_FALSE(p.am_interested);
  }
}

TEST_F(ClientTest, TwoSeedsSplitTheUpload) {
  auto seed1 = make_client(1, true);
  auto seed2 = make_client(2, true);
  auto leech = make_client(3, false);
  seed1->start();
  seed2->start();
  leech->start();
  run_for(600);
  EXPECT_TRUE(leech->complete());
  EXPECT_GT(seed1->stats().bytes_up, 0u);
  EXPECT_GT(seed2->stats().bytes_up, 0u);
  EXPECT_EQ(seed1->stats().bytes_up + seed2->stats().bytes_up +
                leech->stats().bytes_up,
            leech->stats().bytes_down);
}

TEST_F(ClientTest, StopAnnouncesAndDisconnects) {
  auto seed = make_client(1, true);
  auto leech = make_client(2, false);
  seed->start();
  leech->start();
  run_for(30);
  ASSERT_EQ(seed->peer_count(), 1u);
  leech->stop();
  run_for(30);
  EXPECT_EQ(seed->peer_count(), 0u);
  EXPECT_EQ(tracker.swarm_size(meta.info_hash), 1u);  // leecher deregistered
}

TEST_F(ClientTest, UploadPacingKeepsSocketShallow) {
  auto seed = make_client(1, true);
  auto leech = make_client(2, false);
  seed->start();
  leech->start();
  run_for(15);  // mid-download
  ASSERT_FALSE(leech->complete());
  const auto peers = seed->debug_peers();
  ASSERT_EQ(peers.size(), 1u);
  // The seed never floods the socket: at most watermark + one block.
  EXPECT_LE(peers[0].sock_unsent,
            kUploadWatermark.count_bytes() + 16 * 1024 + 13);
}

TEST_F(ClientTest, ChokedPeerGetsNothing) {
  // More leechers than unchoke slots: at any instant at most
  // kUnchokeSlots peers are unchoked by the seed.
  auto seed = make_client(1, true);
  std::vector<std::unique_ptr<Client>> leechers;
  for (std::size_t v = 2; v < kVnodes; ++v) {
    leechers.push_back(make_client(v, false));
  }
  ASSERT_GT(leechers.size(), static_cast<std::size_t>(kUnchokeSlots));
  seed->start();
  for (auto& leecher : leechers) leecher->start();
  bool interested_peer_choked = false;  // the slot limit actually binds
  for (int t = 0; t < 9; ++t) {
    run_for(10);
    int unchoked = 0;
    for (const auto& p : seed->debug_peers()) {
      unchoked += !p.am_choking;
      interested_peer_choked |= p.am_choking && p.peer_interested;
    }
    EXPECT_LE(unchoked, kUnchokeSlots);
  }
  EXPECT_TRUE(interested_peer_choked);
}

TEST_F(ClientTest, ProgressSeriesIsMonotone) {
  auto seed = make_client(1, true);
  auto leech = make_client(2, false);
  seed->start();
  leech->start();
  run_for(600);
  double prev = -1;
  for (const auto& [t, pct] : leech->progress().points()) {
    EXPECT_GE(pct, prev);
    prev = pct;
  }
}

}  // namespace
}  // namespace p2plab::bt
