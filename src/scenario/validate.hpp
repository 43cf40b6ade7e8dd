// The emulator-accuracy harness (the `validate` workload; DESIGN.md §13).
//
// The paper validates the emulator empirically — measured goodput against
// configured modem rates, end-to-end latency against the topology's
// configured delays (Fig 7) — and this harness turns that methodology into
// a self-checking workload. It derives expectations from the configured
// topology alone, measures through the full socket/pipe stack, and reports
// one InvariantResult per check:
//
//   goodput:<zone>   single-flow stream goodput between two nodes of each
//                    multi-node zone matches the bottleneck bandwidth
//                    (min(src up, dst down)) after header overhead.
//   rtt:<a>-<b>      Platform::ping RTT matches the additive path latency
//                    (access + inter-zone + access, both ways) plus
//                    serialization — Fig 7's check, generalized to every
//                    zone pair.
//   fairness:jain    N simultaneous flows into one sink share the
//                    bottleneck with a Jain index above the floor.
//   loss:gilbert     one-way datagram loss under an injected
//                    Gilbert-Elliott overlay matches the chain's
//                    stationary loss rate composed with the links' own.
//
// ExperimentRunner::execute_validate (also here) prints one diagnostic
// line per invariant, writes the ACCURACY json verdict, and exits nonzero
// when any invariant leaves its tolerance band — a distorting emulator
// fails loudly instead of producing quietly wrong figures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/platform.hpp"
#include "scenario/spec.hpp"
#include "sockets/socket.hpp"

namespace p2plab::scenario {

/// One accuracy check: what was measured, what the topology implies, and
/// whether the relative error stayed inside the band (for jain, whether
/// the index stayed above the floor).
struct InvariantResult {
  std::string name;
  double measured = 0;
  double expected = 0;
  double tolerance = 0;
  bool pass = false;
  std::string detail;  // units / failure cause, for the diagnostic line
};

class ValidateHarness {
 public:
  ValidateHarness(core::Platform& platform, const ScenarioSpec& spec);

  /// Run the four phases sequentially on the platform and return every
  /// invariant verdict. Call once.
  std::vector<InvariantResult> run();

 private:
  // A contiguous run of nodes sharing one access-link class ("zone" in the
  // topology sense; global vnode indices [first, first + count)).
  struct NodeZone {
    std::string name;
    std::size_t first = 0;
    std::size_t count = 0;
    topology::LinkClass link;
  };

  // Measurement slots are written by the owning shard's callbacks and read
  // by the coordinator after Platform::run returns (barrier-separated), so
  // each slot is pre-sized, per-flow distinct memory.
  struct TransferProbe {
    std::uint64_t target_bytes = 0;
    std::uint64_t received = 0;
    SimTime start;
    SimTime end;
    bool done = false;
    bool failed = false;  // connect refused / timed out
  };

  /// Drive the platform until `done` or for at most `limit`.
  bool await(const std::function<bool()>& done, Duration limit);
  /// Start a `bytes`-byte stream transfer src -> dst at `at`, recording
  /// into `probe` (slot index `slot` of listeners_).
  void start_transfer(std::size_t src, std::size_t dst, std::uint16_t port,
                      std::uint64_t bytes, std::size_t slot,
                      TransferProbe* probe, SimTime at);
  /// Bottleneck bytes/s of a src->dst transfer (expect_bandwidth override,
  /// else min(src up, dst down)); infinity when unlimited.
  double bottleneck_bytes_per_sec(std::size_t src, std::size_t dst) const;

  void phase_goodput(std::vector<InvariantResult>& out);
  void phase_rtt(std::vector<InvariantResult>& out);
  void phase_fairness(std::vector<InvariantResult>& out);
  void phase_loss(std::vector<InvariantResult>& out);

  core::Platform& platform_;
  const ScenarioSpec& spec_;
  const ValidateParams& params_;
  topology::Topology topo_;
  std::vector<NodeZone> zones_;

  std::vector<sockets::ListenerPtr> listeners_;
  std::vector<sockets::DatagramSocketPtr> udp_socks_;
  std::vector<TransferProbe> transfers_;
  std::uint64_t loss_received_ = 0;
};

}  // namespace p2plab::scenario
