#include "ipfw/pipe.hpp"

#include <utility>

#include "common/assert.hpp"

namespace p2plab::ipfw {

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

void Pipe::enqueue(Segment seg) {
  metrics_.segments_in.inc();
  metrics_.bytes_in.inc(seg.size.count_bytes());
  metrics_.queue_bytes.record(static_cast<double>(queued_bytes_));

  if (down_) {
    metrics_.drops_down.inc();
    if (seg.on_drop) seg.on_drop();
    return;
  }

  if (config_.loss_rate > 0.0 && rng_.chance(config_.loss_rate)) {
    metrics_.drops_loss.inc();
    if (seg.on_drop) seg.on_drop();
    return;
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
      if (seg.on_drop) seg.on_drop();
      return;
    }
  }

  // Pure delay element: no queueing, no serialization.
  if (config_.bandwidth.is_unlimited()) {
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
    return;
  }

  if (queued_bytes_ + seg.size.count_bytes() >
          config_.queue_limit.count_bytes() &&
      busy_) {
    // Queue full (the in-service segment does not count against the queue).
    metrics_.drops_overflow.inc();
    if (seg.on_drop) seg.on_drop();
    return;
  }

  if (!busy_) {
    // Idle server: begin service immediately, bypassing the queue.
    start_service(std::move(seg));
    return;
  }

  queued_bytes_ += seg.size.count_bytes();
  auto [it, inserted] = flows_.try_emplace(seg.flow);
  if (it->second.segments.empty()) ring_add(seg.flow);
  it->second.segments.push_back(std::move(seg));
}

void Pipe::ring_add(FlowId flow) {
  // Reuse a parked ring node if one exists: flows blink in and out of the
  // ring once per burst of queue pressure, and list nodes splice for free.
  if (spare_.empty()) {
    active_.push_back(flow);
  } else {
    spare_.front() = flow;
    active_.splice(active_.end(), spare_, spare_.begin());
  }
}

void Pipe::maybe_sweep_flows() {
  // Parked (empty) flow entries make returning flows allocation-free, but
  // under long-run connection churn dead entries would pile up. When they
  // dominate, give the memory back; the next arrival of each flow simply
  // re-allocates once.
  if (flows_.size() < kSweepMinFlows ||
      flows_.size() < 4 * (active_.size() + 1)) {
    return;
  }
  std::erase_if(flows_,
                [](const auto& kv) { return kv.second.segments.empty(); });
  spare_.clear();
}

void Pipe::serve_next() {
  P2PLAB_ASSERT(busy_);
  if (active_.empty()) {
    busy_ = false;
    return;
  }
  // Deficit round robin: visit flows in ring order, topping up the deficit
  // until the head segment fits. Bounded: each visit adds a quantum.
  for (;;) {
    const FlowId fid = active_.front();
    auto it = flows_.find(fid);
    P2PLAB_ASSERT(it != flows_.end() && !it->second.segments.empty());
    FlowQueue& fq = it->second;
    const std::uint64_t head_bytes = fq.segments.front().size.count_bytes();
    if (fq.deficit_bytes >= head_bytes) {
      fq.deficit_bytes -= head_bytes;
      Segment seg = std::move(fq.segments.front());
      fq.segments.pop_front();
      queued_bytes_ -= head_bytes;
      if (fq.segments.empty()) {
        // An emptied flow leaves the ring and forfeits its deficit (classic
        // DRR — prevents a returning flow from bursting). The map entry and
        // ring node are parked for reuse rather than freed — identical
        // scheduling behaviour, zero allocator traffic when the flow
        // returns.
        fq.deficit_bytes = 0;
        spare_.splice(spare_.end(), active_, active_.begin());
        maybe_sweep_flows();
      }
      start_service(std::move(seg));
      return;
    }
    fq.deficit_bytes += kDrrQuantumBytes;
    active_.splice(active_.end(), active_, active_.begin());  // rotate
  }
}

void Pipe::start_service(Segment seg) {
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

void Pipe::depart(Segment seg) {
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
