// Dummynet-style pipes.
//
// A pipe is Dummynet's shaping element: a bounded queue drained at a fixed
// bandwidth, followed by a fixed-delay line, with optional random loss.
// P2PLab attaches two pipes to every virtual node (one per direction,
// emulating the node<->ISP access link) plus pure-delay pipes for
// inter-group latency.
//
// One deliberate refinement over FIFO Dummynet: the bandwidth server shares
// the link across flows with deficit-round-robin. Real P2PLab relies on TCP
// to share a Dummynet pipe fairly among a node's connections; the default
// flow transport does not simulate TCP congestion control, so DRR stands in
// for that fairness (DESIGN.md §6).
//
// Instrumentation goes only to the shared "ipfw.pipe.*" registry cells
// (PipeMetrics).
#pragma once

#include <cstdint>
#include <deque>
#include <list>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "common/units.hpp"
#include "metrics/registry.hpp"
#include "sim/simulation.hpp"

namespace p2plab::ipfw {

using FlowId = std::uint64_t;

/// Gilbert-Elliott two-state bursty-loss model. The chain advances one step
/// per arriving segment: in the good state segments are lost with
/// `loss_good`, in the bad state with `loss_bad`, and the state flips with
/// the configured transition probabilities. Expected burst length is
/// 1/p_bad_to_good segments; the stationary bad-state share is
/// p_good_to_bad / (p_good_to_bad + p_bad_to_good). Disabled (both
/// transition probabilities zero) it costs nothing beyond the enable check.
struct GilbertElliott {
  double p_good_to_bad = 0.0;
  double p_bad_to_good = 0.0;
  double loss_good = 0.0;
  double loss_bad = 1.0;
  bool enabled() const { return p_good_to_bad > 0.0 || p_bad_to_good > 0.0; }
};

struct PipeConfig {
  Bandwidth bandwidth = Bandwidth::unlimited();  // 0 = pure delay element
  Duration delay = Duration::zero();
  double loss_rate = 0.0;  // applied at enqueue, like Dummynet's plr
  /// Bursty loss applied at enqueue in addition to the uniform loss_rate
  /// (either may be zero; real links show both a background rate and
  /// correlated outbursts).
  GilbertElliott burst_loss;
  /// Queue bound in bytes (Dummynet defaults to 50 slots; 50 full-size
  /// Ethernet frames is the equivalent here).
  DataSize queue_limit = DataSize::bytes(50 * 1500);
};

/// Registry handles shared by every pipe in a firewall: the same metric
/// names resolve to the same cells, so thousands of access-link pipes
/// aggregate into one set of emulator-wide pipe counters. Copyable by
/// design — Firewall resolves once and hands a copy to each pipe.
struct PipeMetrics {
  metrics::Counter segments_in;
  metrics::Counter segments_out;
  metrics::Counter bytes_in;
  metrics::Counter bytes_out;
  metrics::Counter drops_loss;      // random loss (plr)
  metrics::Counter drops_burst;     // Gilbert-Elliott bad-state loss
  metrics::Counter drops_down;      // link administratively down (fault)
  metrics::Counter drops_overflow;  // bounded-queue overflow
  metrics::Histogram queue_bytes;   // occupancy sampled at enqueue

  /// Resolve the shared "ipfw.pipe.*" cells from `reg`.
  static PipeMetrics resolve(metrics::Registry& reg);
};

class Pipe {
 public:
  /// `on_exit` runs when the segment leaves the delay line; `on_drop` (may
  /// be empty) runs if the segment is lost at enqueue. When `defer_delay`
  /// is set, the fixed delay stage is not simulated here: the pipe adds its
  /// configured delay to `*defer_delay` and runs `on_exit` as soon as the
  /// bandwidth stage completes. The parallel engine uses this on source-side
  /// pipes so the cross-shard handoff timestamp carries the delay — that is
  /// what makes the inter-host latency usable as conservative lookahead.
  struct Segment {
    DataSize size;
    FlowId flow = 0;
    // InlineCallback, not std::function: the network layer's continuations
    // carry a move-only pooled PacketRef, and the whole point of the pipe
    // walk is to move it stage to stage without touching the allocator.
    sim::InlineCallback on_exit;
    sim::InlineCallback on_drop;
    Duration* defer_delay = nullptr;
  };

  Pipe(sim::Simulation& sim, PipeConfig config, Rng rng);

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  void enqueue(Segment seg);

  const PipeConfig& config() const { return config_; }
  DataSize queued() const { return DataSize::bytes(queued_bytes_); }

  /// Reconfigure bandwidth/delay/loss in place (ipfw pipe N config ...).
  /// Queued segments keep draining at the new rate from the next service.
  /// The Gilbert-Elliott chain state survives reconfiguration.
  void reconfigure(const PipeConfig& config) { config_ = config; }

  /// Administratively down: every arriving segment is dropped, as on a
  /// flapped interface. Queued segments keep draining (they are already
  /// "on the wire"). Fault injection toggles this.
  void set_down(bool down) { down_ = down; }
  bool is_down() const { return down_; }

  /// Point this pipe's instrumentation at resolved registry cells.
  void bind_metrics(const PipeMetrics& metrics) { metrics_ = metrics; }

 private:
  struct FlowQueue {
    std::deque<Segment> segments;
    std::uint64_t deficit_bytes = 0;
  };

  void serve_next();
  void start_service(Segment seg);
  void depart(Segment seg);  // bandwidth stage done -> delay line
  void ring_add(FlowId flow);
  void maybe_sweep_flows();

  static constexpr std::uint64_t kDrrQuantumBytes = 4096;
  static constexpr std::size_t kSweepMinFlows = 64;

  sim::Simulation& sim_;
  PipeConfig config_;
  Rng rng_;
  PipeMetrics metrics_;

  bool busy_ = false;
  bool down_ = false;
  bool burst_bad_ = false;  // Gilbert-Elliott chain state
  std::uint64_t queued_bytes_ = 0;

  /// The segment occupying the bandwidth server. Parking it here lets the
  /// service-completion event capture only `this` (one pointer, no heap
  /// boxing); valid exactly while `busy_` between start_service and the
  /// completion event moving it back out.
  Segment in_service_;

  // DRR state: per-flow queues plus an active ring in service order.
  // Entries whose queue is empty are parked (not erased) and their ring
  // nodes rest on spare_, so a flow re-entering the ring costs nothing;
  // maybe_sweep_flows bounds the parked population.
  std::unordered_map<FlowId, FlowQueue> flows_;
  std::list<FlowId> active_;
  std::list<FlowId> spare_;  // recycled ring nodes
};

}  // namespace p2plab::ipfw
