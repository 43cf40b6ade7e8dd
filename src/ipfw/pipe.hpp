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
// The DRR state allocates nothing in steady state (DESIGN.md §11): queued
// segments live in a pipe-owned slab and chain into per-flow FIFOs by slab
// index; only backlogged flows hold a slot in the flow table, the ring and
// the flow index, and an emptied flow gives all three back.
//
// Instrumentation goes only to the shared "ipfw.pipe.*" registry cells
// (PipeMetrics).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

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
  /// `on_exit` runs when the segment leaves the delay line. When
  /// `defer_delay` is set, the fixed delay stage is not simulated here: the
  /// pipe adds its configured delay to `*defer_delay` and runs `on_exit` as
  /// soon as the bandwidth stage completes. The parallel engine uses this
  /// on source-side pipes so the cross-shard handoff timestamp carries the
  /// delay — that is what makes the inter-host latency usable as
  /// conservative lookahead. A queued segment is moved into the pipe's slab
  /// and out again, so its size (112 bytes with gcc 12) is copied twice per
  /// queued segment; drops are reported by enqueue's result, not a callback.
  struct Segment {
    DataSize size;
    FlowId flow = 0;
    // InlineCallback, not std::function: the network layer's continuations
    // carry a move-only pooled PacketRef, and the whole point of the pipe
    // walk is to move it stage to stage without touching the allocator.
    sim::InlineCallback on_exit;
    Duration* defer_delay = nullptr;
  };

  Pipe(sim::Simulation& sim, PipeConfig config, Rng rng);

  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// Returns false when the segment is dropped (link down, random or burst
  /// loss, queue overflow). A dropped segment is not moved from: it stays
  /// with the caller, and its `on_exit` is destroyed unrun with it.
  bool enqueue(Segment&& seg);

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
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// A slab cell. `next` chains the owning flow's FIFO, or the free list
  /// while the cell is vacant.
  struct QueuedSegment {
    Segment seg;
    std::uint32_t next = kNone;
  };
  /// A backlogged flow: its FIFO of slab cells and its DRR deficit. A
  /// vacant slot chains the free list through `head`.
  struct FlowQueue {
    FlowId flow = 0;
    std::uint64_t deficit_bytes = 0;
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
  };
  struct IndexEntry {
    FlowId flow = 0;
    std::uint32_t slot = kNone;  // kNone: empty bucket
  };

  void serve_next();
  void start_service(Segment&& seg);
  void depart(Segment&& seg);  // bandwidth stage done -> delay line
  /// The flow's slot, creating it at the ring's tail if it is not
  /// backlogged yet.
  std::uint32_t backlog_slot(FlowId flow);
  /// Bucket holding `flow`, or the empty bucket that ends its probe.
  std::size_t probe(FlowId flow) const;
  void index_erase(FlowId flow);
  void ring_push(std::uint32_t slot);
  void ring_pop();
  /// Double the ring and the index (kept at twice the ring's capacity, so
  /// the index stays at most half full) and rebuild the index.
  void grow_tables();

  static constexpr std::uint64_t kDrrQuantumBytes = 4096;
  static constexpr std::uint32_t kBlockCells = 16;

  QueuedSegment& slab(std::uint32_t cell) {
    return blocks_[cell / kBlockCells][cell % kBlockCells];
  }

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

  // DRR state. Nothing is freed before the pipe dies, so each table stays
  // at the pipe's peak: the slab at its deepest backlog (bounded by
  // queue_limit), the flow table, ring and index at the most flows
  // backlogged at once. The slab grows in fixed blocks, so growing never
  // moves a queued segment and a deep backlog costs the cells it holds
  // rather than a doubled vector.
  std::vector<std::unique_ptr<QueuedSegment[]>> blocks_;
  std::uint32_t cells_ = 0;  // cells ever handed out
  std::uint32_t free_segment_ = kNone;
  std::vector<FlowQueue> flows_;
  std::uint32_t free_flow_ = kNone;
  /// Backlogged flow slots in service order (circular, power-of-two size).
  std::vector<std::uint32_t> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_len_ = 0;
  /// FlowId -> slot for backlogged flows: linear probing on a Fibonacci
  /// hash, backward-shift erase (no tombstones).
  std::vector<IndexEntry> index_;
  int index_shift_ = 64;
};

}  // namespace p2plab::ipfw
