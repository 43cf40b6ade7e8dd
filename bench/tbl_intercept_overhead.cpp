// The virtualization-section microbenchmark: cost of the libc
// interception on a local TCP connect/disconnect cycle.
//
// Paper numbers: 10.22 us unmodified vs 10.79 us with the modified libc
// (an extra getenv + bind per connect/listen). Both emerge from the
// syscall cost model; the bench also demonstrates the behavioural side:
// an intercepted process binds to its vnode alias, a statically linked one
// leaks the physical node's identity.
#include <cstdio>

#include "bench_env.hpp"
#include "core/platform.hpp"
#include "metrics/trace.hpp"
#include "vnode/interceptor.hpp"

using namespace p2plab;

int main() {
  bench::banner("Table (virtualization)",
                "libc interception overhead on connect/disconnect");
  metrics::CsvWriter csv("tbl_intercept_overhead",
                         {"case", "connect_cycle_us"});
  csv.comment("seed=" + std::to_string(core::PlatformConfig{}.seed));

  using namespace vnode::syscall_cost;
  csv.row({"unmodified_libc", std::to_string(kBaseConnectCycle.to_micros())});
  csv.row({"intercepted_libc",
           std::to_string(kInterceptedConnectCycle.to_micros())});
  csv.row({"overhead",
           std::to_string(
               (kInterceptedConnectCycle - kBaseConnectCycle).to_micros())});
  csv.comment("paper: 10.22 us -> 10.79 us");

  // Behavioural demonstration on the platform.
  core::Platform platform(topology::homogeneous_dsl(2),
                          core::PlatformConfig{.physical_nodes = 2});
  Ipv4Addr seen_dynamic;
  auto listener = platform.api(1).listen(
      7000, [&](sockets::StreamSocketPtr sock) {
        seen_dynamic = sock->remote_ip();
      });
  platform.api(0).connect(platform.vnode(1).ip(), 7000,
                          [](sockets::StreamSocketPtr) {});
  platform.run(SimTime::max());
  // The same program linked statically bypasses the modified libc: its
  // connect() binds the physical node's own address, whose traffic skips
  // the emulated access links (and so cannot run under the engine's
  // lookahead) — the bind decision alone shows the leak.
  const vnode::Process static_proc(platform.vnode(0),
                                   vnode::LinkMode::kStatic);
  const Ipv4Addr seen_static =
      vnode::on_connect_or_listen(static_proc, std::nullopt).address;

  std::printf("# dynamic binary appears as %s (its vnode alias)\n",
              seen_dynamic.to_string().c_str());
  std::printf("# static binary appears as %s (the physical node: "
              "interception bypassed — the paper's failure case)\n",
              seen_static.to_string().c_str());
  return 0;
}
