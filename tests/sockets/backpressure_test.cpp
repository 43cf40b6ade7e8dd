// Tests for the send-buffer watermark (on_writable) and the transport's
// loss-detection behaviour under queueing — the mechanisms the BitTorrent
// client's upload pacing depends on.
#include <gtest/gtest.h>

#include <vector>

#include "metrics/registry.hpp"
#include "sockets/socket.hpp"

namespace p2plab::sockets {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }
CidrBlock cidr(const char* text) { return *CidrBlock::parse(text); }

class BackpressureTest : public ::testing::Test {
 protected:
  BackpressureTest() {
    network.bind_metrics(reg);
    hostA = &network.add_host("node1", ip("192.168.38.1"));
    hostB = &network.add_host("node2", ip("192.168.38.2"));
    vnA = std::make_unique<vnode::VirtualNode>(*hostA, 1, ip("10.0.0.1"));
    vnB = std::make_unique<vnode::VirtualNode>(*hostB, 2, ip("10.0.0.51"));
    procA = std::make_unique<vnode::Process>(*vnA);
    procB = std::make_unique<vnode::Process>(*vnB);
    apiA = std::make_unique<SocketApi>(mgr, *procA);
    apiB = std::make_unique<SocketApi>(mgr, *procB);
  }

  void shape_uplink_a(Bandwidth bw) {
    const auto pipe = hostA->firewall().create_pipe(
        {.bandwidth = bw, .delay = Duration::ms(30),
         .queue_limit = DataSize::mib(8)});
    hostA->firewall().add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
                                .dst = CidrBlock::any(),
                                .dir = ipfw::RuleDir::kOut,
                                .action = ipfw::RuleAction::kPipe,
                                .pipe = pipe});
  }

  Message block() {
    Message m;
    m.type = 9;
    m.size = DataSize::kib(16);
    return m;
  }

  metrics::Registry reg;  // outlives the network's bound counters
  sim::Simulation sim;
  net::Network network{sim, Rng{1}};
  SocketManager mgr{network};
  net::Host* hostA = nullptr;
  net::Host* hostB = nullptr;
  std::unique_ptr<vnode::VirtualNode> vnA;
  std::unique_ptr<vnode::VirtualNode> vnB;
  std::unique_ptr<vnode::Process> procA;
  std::unique_ptr<vnode::Process> procB;
  std::unique_ptr<SocketApi> apiA;
  std::unique_ptr<SocketApi> apiB;
};

TEST_F(BackpressureTest, UnsentBytesTracksLifecycle) {
  shape_uplink_a(Bandwidth::kbps(128));
  StreamSocketPtr client;
  auto listener = apiB->listen(6881, [](StreamSocketPtr) {});
  apiA->connect(ip("10.0.0.51"), 6881,
                [&](StreamSocketPtr s) { client = s; });
  sim.run();
  ASSERT_TRUE(client);
  EXPECT_EQ(client->unsent_bytes(), 0u);
  client->send(block());
  // In flight (pending or unacked) until the remote acks.
  EXPECT_EQ(client->unsent_bytes(), DataSize::kib(16).count_bytes());
  sim.run();
  EXPECT_EQ(client->unsent_bytes(), 0u);
}

TEST_F(BackpressureTest, OnWritableFiresAsBufferDrains) {
  shape_uplink_a(Bandwidth::kbps(256));
  StreamSocketPtr client;
  auto listener = apiB->listen(6881, [](StreamSocketPtr) {});
  apiA->connect(ip("10.0.0.51"), 6881,
                [&](StreamSocketPtr s) { client = s; });
  sim.run();
  ASSERT_TRUE(client);

  // Producer: keep <= 2 blocks in the socket; send 10 total.
  int sent = 0;
  std::vector<double> send_times;
  auto pump = [&] {
    while (sent < 10 &&
           client->unsent_bytes() <= DataSize::kib(16).count_bytes()) {
      client->send(block());
      send_times.push_back(sim.now().to_seconds());
      ++sent;
    }
  };
  client->on_writable(DataSize::kib(16), pump);
  pump();
  EXPECT_EQ(sent, 2);  // watermark admits two blocks up front
  sim.run();
  EXPECT_EQ(sent, 10);
  // Sends were spread over the transfer, not issued in one burst.
  EXPECT_GT(send_times.back() - send_times.front(), 3.0);
}

TEST_F(BackpressureTest, AckSilenceTriggersRetransmitOnLoss) {
  // 30% loss: progress-gated RTO must still recover everything, while a
  // clean link (same test body, no loss) never retransmits.
  const auto lossy = hostA->firewall().create_pipe(
      {.bandwidth = Bandwidth::mbps(10), .delay = Duration::ms(10),
       .loss_rate = 0.3, .queue_limit = DataSize::mib(8)});
  hostA->firewall().add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
                              .dst = CidrBlock::any(),
                              .dir = ipfw::RuleDir::kOut,
                              .action = ipfw::RuleAction::kPipe,
                              .pipe = lossy});
  int received = 0;
  auto listener = apiB->listen(6881, [&](StreamSocketPtr s) {
    s->on_message([&](Message&&) { ++received; });
  });
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    for (int i = 0; i < 50; ++i) s->send(block());
  });
  sim.run();
  EXPECT_EQ(received, 50);
}

TEST_F(BackpressureTest, NoSpuriousRetransmissionUnderQueueing) {
  // A slow uplink queues multiple seconds of data; the progress-gated RTO
  // must not fire while acks keep arriving. Spurious retransmits would
  // show up as duplicate wire bytes at the network layer.
  shape_uplink_a(Bandwidth::kbps(128));
  int received = 0;
  auto listener = apiB->listen(6881, [&](StreamSocketPtr s) {
    s->on_message([&](Message&&) { ++received; });
  });
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    for (int i = 0; i < 12; ++i) s->send(block());  // ~12 s of backlog
  });
  sim.run();
  EXPECT_EQ(received, 12);
  // Wire accounting: payload sent once. Sent bytes counter would double on
  // retransmission (it re-counts), so equality proves no spurious RTO.
  const std::uint64_t payload = 12 * DataSize::kib(16).count_bytes();
  std::uint64_t delivered_data = 0;
  (void)delivered_data;
  // All data packets that entered the network carried exactly `payload`
  // bytes of application data plus headers; compare against net.*.
  EXPECT_LT(reg.value("net.bytes_sent"),
            static_cast<double>(payload + 12 * 40 + 20000) /* control */);
}

}  // namespace
}  // namespace p2plab::sockets
