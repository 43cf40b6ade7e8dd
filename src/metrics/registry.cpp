#include "metrics/registry.hpp"

namespace p2plab::metrics {

Histogram Registry::histogram(std::string_view name,
                              std::vector<double> bounds) {
  P2PLAB_ASSERT_MSG(std::is_sorted(bounds.begin(), bounds.end()),
                    "histogram bounds must ascend");
  Entry& e = entry(name, MetricKind::kHistogram);
  if (e.hist.buckets.empty()) {
    e.hist.bounds = std::move(bounds);
    e.hist.buckets.assign(e.hist.bounds.size() + 1, 0);
  }
  return Histogram{&e.hist};
}

std::vector<Registry::SnapshotEntry> Registry::snapshot() const {
  std::vector<SnapshotEntry> out;
  out.reserve(entries_.size());
  for (const auto& [name, e] : entries_) {
    switch (e.kind) {
      case MetricKind::kCounter:
        out.push_back({name, e.kind, static_cast<double>(e.counter), nullptr});
        break;
      case MetricKind::kGauge:
        out.push_back({name, e.kind, e.gauge, nullptr});
        break;
      case MetricKind::kHistogram:
        out.push_back({name, e.kind, static_cast<double>(e.hist.count),
                       &e.hist});
        break;
    }
  }
  return out;
}

double Registry::value(std::string_view name) const {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return 0.0;
  switch (it->second.kind) {
    case MetricKind::kCounter:
      return static_cast<double>(it->second.counter);
    case MetricKind::kGauge:
      return it->second.gauge;
    case MetricKind::kHistogram:
      return static_cast<double>(it->second.hist.count);
  }
  return 0.0;
}

void Registry::fold_shards(const std::vector<Registry*>& shards) {
  // Gauges are levels: restart each shard-fed gauge from zero, then sum
  // the shards' current values below.
  for (const Registry* shard : shards) {
    for (const auto& [name, theirs] : shard->entries_) {
      if (theirs.kind == MetricKind::kGauge) {
        entry(name, MetricKind::kGauge).gauge = 0.0;
      }
    }
  }
  for (Registry* shard : shards) {
    for (auto& [name, theirs] : shard->entries_) {
      Entry& mine = entry(name, theirs.kind);
      switch (theirs.kind) {
        case MetricKind::kCounter:
          mine.counter += theirs.counter;
          theirs.counter = 0;
          break;
        case MetricKind::kGauge:
          mine.gauge += theirs.gauge;
          break;
        case MetricKind::kHistogram: {
          if (mine.hist.buckets.empty()) {
            mine.hist.bounds = theirs.hist.bounds;
            mine.hist.buckets.assign(mine.hist.bounds.size() + 1, 0);
          }
          P2PLAB_ASSERT_MSG(mine.hist.bounds == theirs.hist.bounds,
                            "histogram merged with mismatched bounds");
          for (std::size_t i = 0; i < mine.hist.buckets.size(); ++i) {
            mine.hist.buckets[i] += theirs.hist.buckets[i];
          }
          if (theirs.hist.count > 0) {
            if (mine.hist.count == 0) {
              mine.hist.min = theirs.hist.min;
              mine.hist.max = theirs.hist.max;
            } else {
              mine.hist.min = std::min(mine.hist.min, theirs.hist.min);
              mine.hist.max = std::max(mine.hist.max, theirs.hist.max);
            }
            mine.hist.count += theirs.hist.count;
            mine.hist.sum += theirs.hist.sum;
          }
          theirs.hist.reset();
          break;
        }
      }
    }
  }
}

}  // namespace p2plab::metrics
