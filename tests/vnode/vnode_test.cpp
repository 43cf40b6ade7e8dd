#include "vnode/vnode.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "vnode/interceptor.hpp"

namespace p2plab::vnode {
namespace {

Ipv4Addr ip(const char* text) { return *Ipv4Addr::parse(text); }

class VnodeTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  net::Network network{sim, Rng{1}};
  net::Host& host = network.add_host("node1", ip("192.168.38.1"));
};

TEST_F(VnodeTest, VirtualNodeRegistersAlias) {
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  EXPECT_EQ(network.host_of(ip("10.0.0.1")), &host);
  EXPECT_EQ(vn.ip(), ip("10.0.0.1"));
  EXPECT_EQ(vn.id(), 1u);
  ASSERT_EQ(host.aliases().size(), 1u);
  EXPECT_EQ(host.aliases()[0], ip("10.0.0.1"));
}

TEST_F(VnodeTest, ProcessGetsBindipEnv) {
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  Process proc(vn);
  const auto bindip = proc.getenv("BINDIP");
  ASSERT_TRUE(bindip.has_value());
  EXPECT_EQ(*bindip, "10.0.0.1");
  EXPECT_FALSE(proc.getenv("OTHER").has_value());
}

TEST_F(VnodeTest, EnvSetUnset) {
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  Process proc(vn);
  proc.set_env("FOO", "bar");
  EXPECT_EQ(*proc.getenv("FOO"), "bar");
  proc.unset_env("FOO");
  EXPECT_FALSE(proc.getenv("FOO").has_value());
}

TEST(SyscallCosts, MicrobenchmarkNumbersEmerge) {
  // The paper's measurement: 10.22 us vanilla, 10.79 us intercepted.
  using namespace syscall_cost;
  EXPECT_NEAR(kBaseConnectCycle.to_micros(), 10.22, 1e-9);
  EXPECT_NEAR(kInterceptedConnectCycle.to_micros(), 10.79, 1e-9);
  EXPECT_NEAR((kInterceptedConnectCycle - kBaseConnectCycle).to_micros(), 0.57,
              1e-9);
}

class InterceptorTest : public VnodeTest {};

TEST_F(InterceptorTest, BindRewrittenToBindip) {
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  Process proc(vn);
  const auto decision = on_bind(proc, ip("0.0.0.0"));
  EXPECT_TRUE(decision.intercepted);
  EXPECT_EQ(decision.address, ip("10.0.0.1"));
  EXPECT_GT(decision.added_cost, Duration::zero());
}

TEST_F(InterceptorTest, ConnectGetsImplicitBind) {
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  Process proc(vn);
  const auto decision = on_connect_or_listen(proc, std::nullopt);
  EXPECT_TRUE(decision.intercepted);
  EXPECT_EQ(decision.address, ip("10.0.0.1"));
  // The extra bind() syscall plus the env lookup: the 0.57 us overhead.
  EXPECT_NEAR(decision.added_cost.to_micros(), 0.57, 1e-9);
}

TEST_F(InterceptorTest, PriorBindWinsAndErrorIgnored) {
  // "If another bind() was made before, this one will fail, but we ignore
  // the error in this case." The cost is still paid.
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  Process proc(vn);
  const auto decision =
      on_connect_or_listen(proc, ip("10.0.0.99"));
  EXPECT_TRUE(decision.intercepted);
  EXPECT_EQ(decision.address, ip("10.0.0.99"));
  EXPECT_NEAR(decision.added_cost.to_micros(), 0.57, 1e-9);
}

TEST_F(InterceptorTest, StaticBinaryBypassesInterception) {
  // The one failure case the paper reports: statically compiled programs.
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  Process proc(vn, LinkMode::kStatic);
  const auto bind_decision = on_bind(proc, ip("0.0.0.0"));
  EXPECT_FALSE(bind_decision.intercepted);
  EXPECT_EQ(bind_decision.address, ip("0.0.0.0"));
  const auto conn_decision =
      on_connect_or_listen(proc, std::nullopt);
  EXPECT_FALSE(conn_decision.intercepted);
  // Falls back to the host's primary address: wrong network identity.
  EXPECT_EQ(conn_decision.address, host.admin_ip());
  EXPECT_EQ(conn_decision.added_cost, Duration::zero());
}

TEST_F(InterceptorTest, UnsetBindipBypasses) {
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  Process proc(vn);
  proc.unset_env("BINDIP");
  const auto decision = on_connect_or_listen(proc, std::nullopt);
  EXPECT_FALSE(decision.intercepted);
  EXPECT_EQ(decision.address, host.admin_ip());
}

TEST_F(InterceptorTest, MalformedBindipBypasses) {
  VirtualNode vn(host, 1, ip("10.0.0.1"));
  Process proc(vn);
  proc.set_env("BINDIP", "not-an-address");
  const auto decision = on_connect_or_listen(proc, std::nullopt);
  EXPECT_FALSE(decision.intercepted);
}

}  // namespace
}  // namespace p2plab::vnode
