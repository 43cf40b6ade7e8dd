// Unified metrics registry: named counters, gauges and histograms.
//
// The registry is the platform's flight instruments. Subsystems resolve
// handles ONCE at setup (Registry::counter/gauge/histogram) and increment
// through them on hot paths: a handle is a raw pointer into registry-owned
// storage, so an increment is a single non-atomic store — the simulation
// kernel is single-threaded, and a 10^8-event run cannot afford more.
//
// Default-constructed handles are null and no-ops, so an uninstrumented
// subsystem (unit tests, library users that never bind a registry) pays
// one perfectly predicted branch. The null check — rather than a shared
// sink cell — keeps unbound handles safe on the parallel engine's shard
// worker threads, where concurrent stores to one sink would be a race.
//
// Names are hierarchical dotted paths ("sim.events.dispatched",
// "ipfw.pipe.bytes_in"). Resolving the same name twice returns a handle to
// the same cell, which is how per-instance subsystems (one firewall per
// physical node) aggregate into one platform-wide series.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace p2plab::metrics {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// Storage for one histogram: fixed ascending upper bucket bounds (the
/// last, +inf bucket is implicit) plus count/sum/min/max.
struct HistogramData {
  std::vector<double> bounds;
  std::vector<std::uint64_t> buckets;  // bounds.size() + 1 entries
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  void record(double v) {
    std::size_t i = 0;
    while (i < bounds.size() && v > bounds[i]) ++i;
    ++buckets[i];
    if (count == 0) {
      min = v;
      max = v;
    } else {
      min = std::min(min, v);
      max = std::max(max, v);
    }
    ++count;
    sum += v;
  }

  double mean() const { return count == 0 ? 0.0 : sum / static_cast<double>(count); }

  void reset() {
    std::fill(buckets.begin(), buckets.end(), 0);
    count = 0;
    sum = min = max = 0.0;
  }
};

namespace detail {
inline const HistogramData& empty_histogram() {
  static const HistogramData empty{{}, std::vector<std::uint64_t>(1, 0),
                                   0,  0,
                                   0,  0};
  return empty;
}
}  // namespace detail

/// Monotonic event count. inc() is one store; safe unbound.
class Counter {
 public:
  Counter() = default;
  void inc(std::uint64_t delta = 1) const {
    if (cell_ != nullptr) *cell_ += delta;
  }
  std::uint64_t value() const { return cell_ != nullptr ? *cell_ : 0; }

 private:
  friend class Registry;
  explicit Counter(std::uint64_t* cell) : cell_(cell) {}
  std::uint64_t* cell_ = nullptr;
};

/// Point-in-time level (queue depth, utilization). set() is one store.
class Gauge {
 public:
  Gauge() = default;
  void set(double v) const {
    if (cell_ != nullptr) *cell_ = v;
  }
  void add(double delta) const {
    if (cell_ != nullptr) *cell_ += delta;
  }
  double value() const { return cell_ != nullptr ? *cell_ : 0.0; }

 private:
  friend class Registry;
  explicit Gauge(double* cell) : cell_(cell) {}
  double* cell_ = nullptr;
};

/// Fixed-bucket distribution. record() is a short linear bound scan.
class Histogram {
 public:
  Histogram() = default;
  void record(double v) const {
    if (cell_ != nullptr) cell_->record(v);
  }
  const HistogramData& data() const {
    return cell_ != nullptr ? *cell_ : detail::empty_histogram();
  }

 private:
  friend class Registry;
  explicit Histogram(HistogramData* cell) : cell_(cell) {}
  HistogramData* cell_ = nullptr;
};

/// Owns every metric cell. Iteration order (snapshot) is by name, so output
/// is deterministic regardless of registration order.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter counter(std::string_view name) {
    Entry& e = entry(name, MetricKind::kCounter);
    return Counter{&e.counter};
  }

  Gauge gauge(std::string_view name) {
    Entry& e = entry(name, MetricKind::kGauge);
    return Gauge{&e.gauge};
  }

  /// `bounds` must be ascending upper bucket bounds; ignored (the first
  /// registration wins) when the name already exists.
  Histogram histogram(std::string_view name, std::vector<double> bounds);

  std::size_t size() const { return entries_.size(); }

  struct SnapshotEntry {
    std::string name;
    MetricKind kind;
    /// Counter/gauge value; histogram count.
    double value;
    const HistogramData* hist;  // non-null for histograms only
  };
  /// All metrics, sorted by name.
  std::vector<SnapshotEntry> snapshot() const;

  /// Value of a counter/gauge (histogram: its count); 0 when unknown.
  double value(std::string_view name) const;

  /// Fold per-shard registries into this one. Counters and histograms
  /// move: they add here (histograms bucket-wise, bounds must match, with
  /// min/max merged) and are zeroed in the shard, so repeated folds stay
  /// exact. Gauges are levels: each becomes the sum of the shards' current
  /// values, which are left as they are. Metrics only present in a shard
  /// are created here. The parallel engine keeps one registry per shard
  /// (single-writer, so the non-atomic handles stay safe) and folds them
  /// while every worker is parked: at health samples and after each run.
  void fold_shards(const std::vector<Registry*>& shards);

 private:
  struct Entry {
    MetricKind kind;
    std::uint64_t counter = 0;
    double gauge = 0.0;
    HistogramData hist;
  };

  Entry& entry(std::string_view name, MetricKind kind) {
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      it = entries_.emplace(std::string(name), Entry{kind, 0, 0.0, {}}).first;
    }
    P2PLAB_ASSERT_MSG(it->second.kind == kind,
                      "metric re-registered with a different kind");
    return it->second;
  }

  // std::map: node-based (cell addresses are stable across registrations)
  // and sorted (snapshot ordering for free).
  std::map<std::string, Entry, std::less<>> entries_;
};

}  // namespace p2plab::metrics
