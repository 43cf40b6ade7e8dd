#include "ipfw/pipe.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "common/assert.hpp"

namespace p2plab::ipfw {
namespace {

/// Fibonacci hashing: the top bits of flow * 2^64/phi pick the bucket.
std::size_t home_bucket(FlowId flow, int shift) {
  return static_cast<std::size_t>((flow * 0x9E3779B97F4A7C15ULL) >> shift);
}

}  // namespace

PipeMetrics PipeMetrics::resolve(metrics::Registry& reg) {
  PipeMetrics m;
  m.segments_in = reg.counter("ipfw.pipe.segments_in");
  m.segments_out = reg.counter("ipfw.pipe.segments_out");
  m.bytes_in = reg.counter("ipfw.pipe.bytes_in");
  m.bytes_out = reg.counter("ipfw.pipe.bytes_out");
  m.drops_loss = reg.counter("ipfw.pipe.drops_loss");
  m.drops_burst = reg.counter("ipfw.pipe.drops_burst");
  m.drops_down = reg.counter("ipfw.pipe.drops_down");
  m.drops_overflow = reg.counter("ipfw.pipe.drops_overflow");
  // Buckets up to the default 50-frame queue bound and beyond (custom
  // limits may exceed it).
  m.queue_bytes = reg.histogram(
      "ipfw.pipe.queue_bytes",
      {0, 1500, 4500, 15000, 37500, 75000, 150000, 600000});
  return m;
}

Pipe::Pipe(sim::Simulation& sim, PipeConfig config, Rng rng)
    : sim_(sim), config_(config), rng_(rng) {
  P2PLAB_ASSERT(config_.loss_rate >= 0.0 && config_.loss_rate <= 1.0);
}

bool Pipe::enqueue(Segment&& seg) {
  metrics_.segments_in.inc();
  metrics_.bytes_in.inc(seg.size.count_bytes());
  metrics_.queue_bytes.record(static_cast<double>(queued_bytes_));

  if (down_) {
    metrics_.drops_down.inc();
    return false;
  }

  if (config_.loss_rate > 0.0 && rng_.chance(config_.loss_rate)) {
    metrics_.drops_loss.inc();
    return false;
  }

  if (config_.burst_loss.enabled()) {
    // Advance the two-state chain once per arrival, then lose by state.
    const GilbertElliott& ge = config_.burst_loss;
    if (burst_bad_) {
      if (rng_.chance(ge.p_bad_to_good)) burst_bad_ = false;
    } else {
      if (rng_.chance(ge.p_good_to_bad)) burst_bad_ = true;
    }
    const double p = burst_bad_ ? ge.loss_bad : ge.loss_good;
    if (p > 0.0 && rng_.chance(p)) {
      metrics_.drops_burst.inc();
      return false;
    }
  }

  // Pure delay element: no queueing, no serialization.
  if (config_.bandwidth.is_unlimited()) {
    depart(std::move(seg));
    return true;
  }

  if (queued_bytes_ + seg.size.count_bytes() >
          config_.queue_limit.count_bytes() &&
      busy_) {
    // Queue full (the in-service segment does not count against the queue).
    metrics_.drops_overflow.inc();
    return false;
  }

  if (!busy_) {
    // Idle server: begin service immediately, bypassing the queue.
    start_service(std::move(seg));
    return true;
  }

  queued_bytes_ += seg.size.count_bytes();
  const FlowId flow = seg.flow;
  std::uint32_t cell = free_segment_;
  if (cell == kNone) {
    if (cells_ % kBlockCells == 0) {
      blocks_.push_back(std::make_unique<QueuedSegment[]>(kBlockCells));
    }
    cell = cells_++;
  } else {
    free_segment_ = slab(cell).next;
  }
  slab(cell).seg = std::move(seg);
  slab(cell).next = kNone;
  FlowQueue& fq = flows_[backlog_slot(flow)];
  (fq.head == kNone ? fq.head : slab(fq.tail).next) = cell;
  fq.tail = cell;
  return true;
}

std::uint32_t Pipe::backlog_slot(FlowId flow) {
  if (ring_len_ == ring_.size()) grow_tables();
  const std::size_t bucket = probe(flow);
  if (index_[bucket].slot != kNone) return index_[bucket].slot;
  std::uint32_t slot = free_flow_;
  if (slot == kNone) {
    slot = static_cast<std::uint32_t>(flows_.size());
    flows_.emplace_back();
  } else {
    free_flow_ = flows_[slot].head;
  }
  flows_[slot] = FlowQueue{.flow = flow};
  index_[bucket] = {flow, slot};
  ring_push(slot);
  return slot;
}

std::size_t Pipe::probe(FlowId flow) const {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home_bucket(flow, index_shift_);
  while (index_[i].slot != kNone && index_[i].flow != flow) i = (i + 1) & mask;
  return i;
}

void Pipe::index_erase(FlowId flow) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = probe(flow);
  P2PLAB_ASSERT(index_[hole].slot != kNone);
  // Backward shift: pull each later entry of the probe run into the hole
  // unless that would move it before its home bucket.
  for (std::size_t j = (hole + 1) & mask; index_[j].slot != kNone;
       j = (j + 1) & mask) {
    const std::size_t home = home_bucket(index_[j].flow, index_shift_);
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kNone;
}

void Pipe::ring_push(std::uint32_t slot) {
  ring_[(ring_head_ + ring_len_) & (ring_.size() - 1)] = slot;
  ++ring_len_;
}

void Pipe::ring_pop() {
  ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
  --ring_len_;
}

void Pipe::grow_tables() {
  std::vector<std::uint32_t> ring(std::max<std::size_t>(8, 2 * ring_.size()));
  for (std::size_t k = 0; k < ring_len_; ++k) {
    ring[k] = ring_[(ring_head_ + k) & (ring_.size() - 1)];
  }
  ring_ = std::move(ring);
  ring_head_ = 0;
  index_.assign(2 * ring_.size(), IndexEntry{});
  index_shift_ = 64 - std::countr_zero(index_.size());
  for (std::size_t k = 0; k < ring_len_; ++k) {
    const FlowId flow = flows_[ring_[k]].flow;
    index_[probe(flow)] = {flow, ring_[k]};
  }
}

void Pipe::serve_next() {
  P2PLAB_ASSERT(busy_);
  if (ring_len_ == 0) {
    busy_ = false;
    return;
  }
  // Deficit round robin: visit flows in ring order, topping up the deficit
  // until the head segment fits. Bounded: each visit adds a quantum.
  for (;;) {
    const std::uint32_t slot = ring_[ring_head_];
    FlowQueue& fq = flows_[slot];
    const std::uint32_t cell = fq.head;
    QueuedSegment& head = slab(cell);
    const std::uint64_t head_bytes = head.seg.size.count_bytes();
    if (fq.deficit_bytes >= head_bytes) {
      fq.deficit_bytes -= head_bytes;
      queued_bytes_ -= head_bytes;
      fq.head = head.next;
      if (fq.head == kNone) {
        // An emptied flow leaves the ring, the index and its slot, and so
        // forfeits its deficit (classic DRR — prevents a returning flow
        // from bursting).
        ring_pop();
        index_erase(fq.flow);
        fq.head = free_flow_;
        free_flow_ = slot;
      }
      start_service(std::move(head.seg));
      head.next = free_segment_;
      free_segment_ = cell;
      return;
    }
    fq.deficit_bytes += kDrrQuantumBytes;
    ring_pop();  // rotate the head to the tail
    ring_push(slot);
  }
}

void Pipe::start_service(Segment&& seg) {
  busy_ = true;
  const Duration service = config_.bandwidth.transmission_time(seg.size);
  // The in-service segment waits inside the pipe itself, so the completion
  // event captures one pointer. Moving it out *before* depart/serve_next
  // frees the slot for whatever those start serving next.
  in_service_ = std::move(seg);
  sim_.schedule_after(service, [this] {
    Segment done = std::move(in_service_);
    depart(std::move(done));
    serve_next();
  });
}

void Pipe::depart(Segment&& seg) {
  metrics_.segments_out.inc();
  metrics_.bytes_out.inc(seg.size.count_bytes());
  auto cb = std::move(seg.on_exit);
  if (seg.defer_delay != nullptr) {
    *seg.defer_delay += config_.delay;
    cb();
  } else if (config_.delay == Duration::zero()) {
    cb();
  } else {
    sim_.schedule_after(config_.delay, std::move(cb));
  }
}

}  // namespace p2plab::ipfw
