// Per-shard packet pool: recycled cells behind move-only handles.
//
// Every in-flight packet used to ride in its own make_shared<Packet> — two
// allocations per hop chain, at 10^6+ packets per emulated run. The pool
// hands out stable Packet cells behind an 8-byte PacketRef; a cell returns
// to the free list the instant its last handle dies, which covers the drop
// paths (firewall deny, queue overflow, withdrawn address, crashed vnode)
// with no explicit recycling code: wherever the handle goes out of scope,
// the cell comes back. Steady state acquires therefore touch the allocator
// zero times; only growth beyond the peak in-flight population allocates
// (counted as net.pool.misses).
//
// Pools are strictly per shard: each engine shard's Network owns one, and
// cross-shard handoff moves the packet *by value* through the outbox, then
// re-acquires from the destination shard's pool at merge time — cells never
// migrate between pools, so no locking is needed anywhere.
//
// Shutdown order is deliberately forgiving: a pool destroyed while refs are
// still outstanding (an event queue or pipe torn down after the Network)
// orphans those cells — each ref then frees its own cell — so member
// declaration order cannot turn into a use-after-free.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "metrics/registry.hpp"
#include "net/packet.hpp"

namespace p2plab::net {

class PacketPool;

/// Move-only owning handle to a pooled Packet. Destroying the handle
/// returns the cell to its pool (or frees it, if the pool is gone).
class PacketRef {
 public:
  PacketRef() = default;
  PacketRef(PacketRef&& other) noexcept : p_(other.p_) { other.p_ = nullptr; }
  PacketRef& operator=(PacketRef&& other) noexcept {
    if (this != &other) {
      release();
      p_ = other.p_;
      other.p_ = nullptr;
    }
    return *this;
  }
  PacketRef(const PacketRef&) = delete;
  PacketRef& operator=(const PacketRef&) = delete;
  ~PacketRef() { release(); }

  explicit operator bool() const { return p_ != nullptr; }
  Packet& operator*() const { return *p_; }
  Packet* operator->() const { return p_; }

 private:
  friend class PacketPool;
  explicit PacketRef(Packet* p) : p_(p) {}
  void release();

  Packet* p_ = nullptr;
};

class PacketPool {
 public:
  PacketPool() = default;
  PacketPool(const PacketPool&) = delete;
  PacketPool& operator=(const PacketPool&) = delete;
  ~PacketPool() {
    // Orphan cells still out in the wild (their refs free them), then free
    // the pooled ones.
    for (Packet* cell : cells_) cell->origin_pool = nullptr;
    for (Packet* cell : free_) delete cell;
  }

  /// Hand out a cell holding `init`. Steady state pops the free list; a
  /// miss (in-flight population grew past every previous peak) allocates.
  PacketRef acquire(Packet&& init) {
    Packet* cell;
    if (!free_.empty()) {
      cell = free_.back();
      free_.pop_back();
      recycled_.inc();
    } else {
      cell = new Packet();
      cells_.push_back(cell);
      misses_.inc();
      size_.set(static_cast<double>(cells_.size()));
    }
    *cell = std::move(init);
    cell->origin_pool = this;
    return PacketRef{cell};
  }

  /// Cells ever created (the peak in-flight population, plus growth slack).
  std::size_t capacity() const { return cells_.size(); }
  /// Cells currently on the free list.
  std::size_t available() const { return free_.size(); }
  /// Cells currently owned by live PacketRefs.
  std::size_t in_flight() const { return cells_.size() - free_.size(); }

  /// Resolve the "net.pool.*" cells from `reg`.
  void bind_metrics(metrics::Registry& reg) {
    size_ = reg.gauge("net.pool.size");
    recycled_ = reg.counter("net.pool.recycled");
    misses_ = reg.counter("net.pool.misses");
    size_.set(static_cast<double>(cells_.size()));
  }

 private:
  friend class PacketRef;
  void release(Packet* cell) {
    // Drop the owned payload promptly (frees application memory now);
    // scalar fields are overwritten wholesale by the next acquire.
    cell->body.reset();
    free_.push_back(cell);
  }

  std::vector<Packet*> cells_;  // every cell ever created, pool-owned
  std::vector<Packet*> free_;
  metrics::Gauge size_;
  metrics::Counter recycled_;
  metrics::Counter misses_;
};

inline void PacketRef::release() {
  if (p_ == nullptr) return;
  if (p_->origin_pool != nullptr) {
    p_->origin_pool->release(p_);
  } else {
    delete p_;  // pool already destroyed; this ref owned the orphan
  }
  p_ = nullptr;
}

}  // namespace p2plab::net
