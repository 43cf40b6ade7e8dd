// Summary statistics and empirical distributions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/assert.hpp"

namespace p2plab::metrics {

/// Streaming summary (count/mean/variance via Welford, min/max).
class Summary {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0.0 : mean_; }
  double variance() const {
    return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Empirical distribution: collects samples, answers quantile/CDF queries.
class Distribution {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Quantile in [0,1] by linear interpolation between order statistics.
  double quantile(double q) const {
    P2PLAB_ASSERT(!samples_.empty());
    P2PLAB_ASSERT(q >= 0.0 && q <= 1.0);
    ensure_sorted();
    if (samples_.size() == 1) return samples_[0];
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  double median() const { return quantile(0.5); }
  double min() const {
    P2PLAB_ASSERT(!samples_.empty());
    ensure_sorted();
    return samples_.front();
  }
  double max() const {
    P2PLAB_ASSERT(!samples_.empty());
    ensure_sorted();
    return samples_.back();
  }

  double mean() const {
    P2PLAB_ASSERT(!samples_.empty());
    double total = 0.0;
    for (double s : samples_) total += s;
    return total / static_cast<double>(samples_.size());
  }

  /// Empirical CDF F(x) = fraction of samples <= x.
  double cdf(double x) const {
    if (samples_.empty()) return 0.0;
    ensure_sorted();
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
  }

  /// The sorted samples paired with CDF values, for plotting step CDFs.
  std::vector<std::pair<double, double>> cdf_points() const {
    ensure_sorted();
    std::vector<std::pair<double, double>> points;
    points.reserve(samples_.size());
    for (size_t i = 0; i < samples_.size(); ++i) {
      points.emplace_back(samples_[i], static_cast<double>(i + 1) /
                                           static_cast<double>(samples_.size()));
    }
    return points;
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() const {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;
};

}  // namespace p2plab::metrics
