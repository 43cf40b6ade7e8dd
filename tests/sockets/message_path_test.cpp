// The message path: a delivered Message is the sent one (type, size and
// the very body object) on every route a segment can take, handlers may
// clear or replace themselves mid-dispatch, and a dial schedules no
// heap-boxed closure.
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "metrics/registry.hpp"
#include "sim/inline_callback.hpp"
#include "sockets/socket.hpp"

namespace p2plab::sockets {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }
CidrBlock cidr(const char* text) { return *CidrBlock::parse(text); }

struct Received {
  std::uint32_t type;
  std::uint64_t bytes;
  const void* body;
  SimTime at;
};

class MessagePathTest : public ::testing::Test {
 protected:
  MessagePathTest() {
    hostA = &network.add_host("node1", ip("192.168.38.1"));
    hostB = &network.add_host("node2", ip("192.168.38.2"));
    vnA = std::make_unique<vnode::VirtualNode>(*hostA, 1, ip("10.0.0.1"));
    vnB = std::make_unique<vnode::VirtualNode>(*hostB, 2, ip("10.0.0.51"));
    procA = std::make_unique<vnode::Process>(*vnA);
    procB = std::make_unique<vnode::Process>(*vnB);
    apiA = std::make_unique<SocketApi>(mgr, *procA);
    apiB = std::make_unique<SocketApi>(mgr, *procB);
    mgr.bind_metrics(registry);
  }

  /// A message whose body is a fresh object the test can recognise.
  static Message message(std::uint32_t type, std::uint64_t bytes) {
    return Message{.type = type,
                   .size = DataSize::bytes(bytes),
                   .body = std::make_shared<const std::string>("body")};
  }

  /// Records every message the server side of port 6881 receives.
  ListenerPtr recording_listener() {
    return apiB->listen(6881, [this](StreamSocketPtr s) {
      s->on_message([this](Message&& m) {
        received.push_back(Received{m.type, m.size.count_bytes(),
                                    m.body.get(), sim.now()});
      });
    });
  }

  void expect_delivered_as_sent(const std::vector<Message>& sent) {
    ASSERT_EQ(received.size(), sent.size());
    for (std::size_t i = 0; i < sent.size(); ++i) {
      EXPECT_EQ(received[i].type, sent[i].type) << i;
      EXPECT_EQ(received[i].bytes, sent[i].size.count_bytes()) << i;
      EXPECT_EQ(received[i].body, sent[i].body.get()) << i;
    }
  }

  sim::Simulation sim;
  net::Network network{sim, Rng{1}};
  SocketManager mgr{network};
  metrics::Registry registry;
  net::Host* hostA = nullptr;
  net::Host* hostB = nullptr;
  std::unique_ptr<vnode::VirtualNode> vnA;
  std::unique_ptr<vnode::VirtualNode> vnB;
  std::unique_ptr<vnode::Process> procA;
  std::unique_ptr<vnode::Process> procB;
  std::unique_ptr<SocketApi> apiA;
  std::unique_ptr<SocketApi> apiB;
  std::vector<Received> received;
};

TEST_F(MessagePathTest, DatagramCarriesTheSentBody) {
  auto server = apiB->udp_bind(5000);
  server->on_message([this](Message&& m, Ipv4Addr, std::uint16_t) {
    received.push_back(
        Received{m.type, m.size.count_bytes(), m.body.get(), sim.now()});
  });
  auto client = apiA->udp_bind();
  const std::vector<Message> sent = {message(11, 120), message(12, 0)};
  for (const Message& m : sent) client->send_to(ip("10.0.0.51"), 5000, m);
  sim.run();
  expect_delivered_as_sent(sent);
}

TEST_F(MessagePathTest, InOrderSegmentCarriesTheSentBody) {
  auto listener = recording_listener();
  const std::vector<Message> sent = {message(1, 16384), message(2, 5),
                                     message(3, 0)};
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    for (const Message& m : sent) s->send(m);
  });
  sim.run();
  expect_delivered_as_sent(sent);
}

TEST_F(MessagePathTest, DataThatOvertookTheSynAckCarriesTheSentBody) {
  // Control segments ride their own pipe flow, so a server's first data
  // can reach the client before the SYN-ACK. Replay that order by hand:
  // once the dial is on the wire, hand the client's demux a data segment
  // and only then the SYN-ACK.
  auto listener = apiB->listen(6881, [](StreamSocketPtr) {});
  StreamSocketPtr client;
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    client = s;
    s->on_message([this](Message&& m) {
      received.push_back(
          Received{m.type, m.size.count_bytes(), m.body.get(), sim.now()});
    });
  });
  StreamSocket* dialing = nullptr;
  while (dialing == nullptr && sim.step()) {
    dialing = dynamic_cast<StreamSocket*>(
        mgr.endpoint_at(ip("10.0.0.1"), 49152));
  }
  ASSERT_NE(dialing, nullptr);

  const Message sent = message(21, 700);
  const auto segment = [&](net::PacketKind kind) {
    net::Packet p;
    p.src = ip("10.0.0.51");
    p.dst = ip("10.0.0.1");
    p.src_port = 6881;
    p.dst_port = 49152;
    p.kind = kind;
    p.conn = dialing->conn_id();
    return p;
  };
  net::Packet data = segment(net::PacketKind::kData);
  data.seq = 1;
  data.msg_type = sent.type;
  data.wire_size = DataSize::bytes(sent.size.count_bytes() + kHeaderBytes);
  data.body = sent.body;
  mgr.dispatch(std::move(data));
  EXPECT_TRUE(received.empty()) << "data before the SYN-ACK must be parked";
  mgr.dispatch(segment(net::PacketKind::kSynAck));
  ASSERT_NE(client, nullptr);
  expect_delivered_as_sent({sent});
}

TEST_F(MessagePathTest, ParkedAndRetransmittedSegmentsCarryTheSentBody) {
  const auto uplink = hostA->firewall().create_pipe(
      {.bandwidth = Bandwidth::mbps(10), .delay = Duration::ms(10)});
  hostA->firewall().add_rule({.number = 100, .src = cidr("10.0.0.1/32"),
                              .dst = CidrBlock::any(),
                              .dir = ipfw::RuleDir::kOut,
                              .action = ipfw::RuleAction::kPipe,
                              .pipe = uplink});
  auto listener = recording_listener();
  StreamSocketPtr client;
  apiA->connect(ip("10.0.0.51"), 6881,
                [&](StreamSocketPtr s) { client = s; });
  const std::vector<Message> sent = {message(31, 1000), message(32, 2000)};
  const auto at = [](double s) {
    return SimTime::zero() + Duration::seconds(s);
  };
  // The first message is lost in a 0.5 s outage; the second, sent after
  // it, arrives ahead of the first's go-back-N retransmission (initial RTO
  // 3 s) and waits in the reorder buffer.
  sim.schedule_at(at(1.0), [&] {
    hostA->firewall().pipe(uplink).set_down(true);
    client->send(sent[0]);
  });
  sim.schedule_at(at(1.5),
                  [&] { hostA->firewall().pipe(uplink).set_down(false); });
  sim.schedule_at(at(2.0), [&] { client->send(sent[1]); });
  sim.run_until(at(3.5));
  EXPECT_TRUE(received.empty());
  sim.run();
  EXPECT_GE(mgr.metrics().retransmits.value(), 1u);
  expect_delivered_as_sent(sent);
  // The parked copy came out with the retransmitted first message, ahead
  // of its own retransmission.
  EXPECT_EQ(received[0].at, received[1].at);
}

TEST_F(MessagePathTest, HandlerMayClearItselfMidDispatch) {
  // Captures far over std::function's small-object budget: the slot must
  // keep the running target alive after it clears itself.
  std::array<char, 64> pad{};
  pad[63] = 'x';
  int stream_calls = 0;
  auto listener = apiB->listen(6881, [&, pad](StreamSocketPtr s) {
    s->on_message([&, pad, raw = s.get()](Message&&) {
      raw->on_message(nullptr);
      stream_calls += pad[63] == 'x' ? 1 : 100;
    });
  });
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    for (int i = 0; i < 3; ++i) s->send(message(1, 10));
  });

  auto server = apiB->udp_bind(5000);
  int datagram_calls = 0;
  server->on_message(
      [&, pad, raw = server.get()](Message&&, Ipv4Addr, std::uint16_t) {
        raw->on_message(nullptr);
        datagram_calls += pad[63] == 'x' ? 1 : 100;
      });
  auto client = apiA->udp_bind();
  for (int i = 0; i < 3; ++i) {
    client->send_to(ip("10.0.0.51"), 5000, message(2, 10));
  }
  sim.run();
  EXPECT_EQ(stream_calls, 1);
  EXPECT_EQ(datagram_calls, 1);
}

TEST_F(MessagePathTest, HandlerMayReplaceItselfMidDispatch) {
  std::array<char, 64> pad{};
  int first = 0;
  int second = 0;
  auto listener = apiB->listen(6881, [&](StreamSocketPtr s) {
    s->on_message([&, pad, raw = s.get()](Message&&) {
      raw->on_message([&, pad](Message&&) { ++second; });
      first += pad[0] == 0 ? 1 : 100;
    });
  });
  apiA->connect(ip("10.0.0.51"), 6881, [&](StreamSocketPtr s) {
    for (int i = 0; i < 3; ++i) s->send(message(1, 10));
  });

  auto server = apiB->udp_bind(5000);
  int datagram_first = 0;
  int datagram_second = 0;
  server->on_message(
      [&, pad, raw = server.get()](Message&&, Ipv4Addr, std::uint16_t) {
        raw->on_message([&, pad](Message&&, Ipv4Addr, std::uint16_t) {
          ++datagram_second;
        });
        datagram_first += pad[0] == 0 ? 1 : 100;
      });
  auto client = apiA->udp_bind();
  for (int i = 0; i < 3; ++i) {
    client->send_to(ip("10.0.0.51"), 5000, message(2, 10));
  }
  sim.run();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(second, 2);
  EXPECT_EQ(datagram_first, 1);
  EXPECT_EQ(datagram_second, 2);
}

TEST_F(MessagePathTest, DialSchedulesNoHeapBoxedClosure) {
  auto listener = apiB->listen(6881, [](StreamSocketPtr) {});
  std::array<char, 48> pad{};
  bool connected = false;
  const std::uint64_t before = sim::InlineCallback::heap_fallbacks();
  // Callbacks with large captures, as applications write them.
  apiA->connect(
      ip("10.0.0.51"), 6881,
      [&, pad](StreamSocketPtr) { connected = pad[0] == 0; },
      [pad] { (void)pad; });
  sim.run();
  EXPECT_TRUE(connected);
  EXPECT_EQ(sim::InlineCallback::heap_fallbacks(), before);
}

}  // namespace
}  // namespace p2plab::sockets
