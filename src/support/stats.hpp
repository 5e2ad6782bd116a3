// Streaming statistics accumulators used by the simulator, the benches,
// and the obs:: observability registry.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "support/error.hpp"

namespace topomap {

/// The one count/sum/min/max accumulator.  This used to exist as drifting
/// ad-hoc copies (bench mean loops, RunningStats internals); now
/// obs::Histogram summaries, RunningStats, and the bench helpers
/// all aggregate through this struct, so every layer applies the same
/// empty-set conventions (mean/min/max of nothing are 0).
///
/// count is exact; min/max/count merges are order-free.  sum is a plain
/// left-to-right double accumulation: exact for integral-valued samples
/// (below 2^53), deterministic up to FP associativity otherwise — which is
/// why obs counters that must merge bit-identically across thread shards
/// are kept integral.
struct Distribution {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void add(double x) {
    ++count;
    sum += x;
    min = std::min(min, x);
    max = std::max(max, x);
  }

  void merge(const Distribution& other) {
    if (other.count == 0) return;
    count += other.count;
    sum += other.sum;
    min = std::min(min, other.min);
    max = std::max(max, other.max);
  }

  double mean() const {
    return count ? sum / static_cast<double>(count) : 0.0;
  }
  double min_or_zero() const { return count ? min : 0.0; }
  double max_or_zero() const { return count ? max : 0.0; }
};

/// The one fixed-point rendering policy for human-readable output: Table
/// cells, the obs tracer's text summary, and any bench that formats its own
/// doubles go through here, so "3 digits" means the same rounding
/// everywhere.
inline std::string format_fixed(double x, int precision) {
  TOPOMAP_REQUIRE(precision >= 0 && precision <= 17,
                  "format_fixed precision out of range");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, x);
  return buf;
}

/// Welford-style streaming accumulator: mean/variance/min/max without
/// retaining samples.  Numerically stable for long simulator runs.  The
/// count/sum/min/max plane is the shared Distribution; Welford's mean/m2
/// recurrence is layered on top for the variance.
class RunningStats {
 public:
  void add(double x) {
    base_.add(x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(base_.count);
    m2_ += delta * (x - mean_);
  }

  void merge(const RunningStats& other) {
    if (other.base_.count == 0) return;
    if (base_.count == 0) {
      *this = other;
      return;
    }
    const auto na = static_cast<double>(base_.count);
    const auto nb = static_cast<double>(other.base_.count);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    base_.merge(other.base_);
  }

  std::uint64_t count() const { return base_.count; }
  double sum() const { return base_.sum; }
  double mean() const { return base_.count ? mean_ : 0.0; }
  double variance() const {
    return base_.count > 1 ? m2_ / static_cast<double>(base_.count - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }
  double min() const { return base_.min_or_zero(); }
  double max() const { return base_.max_or_zero(); }

 private:
  Distribution base_;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

/// Retains samples; supports exact percentiles.  Use for modest sample
/// counts (e.g. per-message latencies in a bench run).
class SampleStats {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  std::size_t count() const { return samples_.size(); }

  double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }

  /// Exact q-quantile via linear interpolation, q in [0,1].
  double percentile(double q) {
    TOPOMAP_REQUIRE(q >= 0.0 && q <= 1.0, "percentile out of range");
    TOPOMAP_REQUIRE(!samples_.empty(), "percentile of empty sample set");
    ensure_sorted();
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  double min() {
    ensure_sorted();
    TOPOMAP_REQUIRE(!samples_.empty(), "min of empty sample set");
    return samples_.front();
  }

  double max() {
    ensure_sorted();
    TOPOMAP_REQUIRE(!samples_.empty(), "max of empty sample set");
    return samples_.back();
  }

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensure_sorted() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace topomap
