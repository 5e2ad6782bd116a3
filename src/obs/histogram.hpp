// obs::Histogram — deterministic log-bucketed (HDR-style) value/latency
// histogram with *fixed* bucket boundaries and exact merge semantics.
//
// Bucket layout: bucket 0 absorbs everything below 1.0 (and NaN); above
// that, each power-of-two octave [2^e, 2^(e+1)) is split into kSubBuckets
// linear sub-buckets, for a relative resolution of 1/kSubBuckets (12.5%
// at the default 8).  The layout is a pure function of the value — no
// data-dependent resizing, no rank estimation state — so two histograms
// of the same multiset of samples are bit-identical no matter the insert
// order, and merge() (per-bucket count addition plus a Distribution
// merge) is exact and order-free.  That is what lets obs::Registry shard
// histograms per thread exactly like counters: the merged snapshot is
// independent of which worker recorded which sample, provided the samples
// themselves are (the repo-wide thread-count-invariance contract).
//
// Quantiles interpolate linearly inside the target bucket and clamp to
// the observed [min, max]; they are deterministic for a given multiset,
// so the daemon's metrics snapshot and bench/svc_load report identical
// quantile semantics by construction.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "support/stats.hpp"

namespace topomap::obs {

class Histogram {
 public:
  /// Linear sub-buckets per power-of-two octave (12.5% resolution).
  static constexpr int kSubBuckets = 8;
  /// Octaves covered before clamping into the top bucket (values to 2^64).
  static constexpr int kOctaves = 64;
  /// Fixed total bucket count: the sub-1.0 bucket plus every sub-bucket.
  static constexpr int kBucketCount = 1 + kOctaves * kSubBuckets;

  /// The bucket a value lands in.  Values below 1.0 (and NaN) go to
  /// bucket 0; values at or above 2^64 clamp into the last bucket.
  static int bucket_index(double v) {
    if (!(v >= 1.0)) return 0;
    int e = 0;
    double scaled = v;
    while (scaled >= 2.0 && e < kOctaves - 1) {
      scaled *= 0.5;  // exact: power-of-two scaling
      ++e;
    }
    if (scaled >= 2.0) return kBucketCount - 1;
    int sub = static_cast<int>((scaled - 1.0) * kSubBuckets);
    sub = std::min(sub, kSubBuckets - 1);
    return 1 + e * kSubBuckets + sub;
  }

  /// Inclusive lower boundary of a bucket (bucket 0 reports 0.0).
  static double bucket_lo(int index) {
    if (index <= 0) return 0.0;
    const int e = (index - 1) / kSubBuckets;
    const int s = (index - 1) % kSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(s) / kSubBuckets, e);
  }

  /// Exclusive upper boundary of a bucket.
  static double bucket_hi(int index) {
    if (index <= 0) return 1.0;
    const int e = (index - 1) / kSubBuckets;
    const int s = (index - 1) % kSubBuckets;
    return std::ldexp(1.0 + static_cast<double>(s + 1) / kSubBuckets, e);
  }

  void add(double v) {
    if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
    ++buckets_[static_cast<std::size_t>(bucket_index(v))];
    base_.add(v);
  }

  /// Exact, order-free merge: per-bucket count addition plus the
  /// Distribution merge (integral-valued samples keep sums exact).
  void merge(const Histogram& other) {
    if (other.base_.count == 0) return;
    if (buckets_.empty()) buckets_.assign(kBucketCount, 0);
    for (int i = 0; i < kBucketCount; ++i)
      buckets_[static_cast<std::size_t>(i)] += other.bucket(i);
    base_.merge(other.base_);
  }

  /// The count/sum/min/max summary every histogram carries.
  const Distribution& summary() const { return base_; }
  std::uint64_t count() const { return base_.count; }
  double sum() const { return base_.sum; }
  double min_or_zero() const { return base_.min_or_zero(); }
  double max_or_zero() const { return base_.max_or_zero(); }
  double mean() const { return base_.mean(); }

  std::uint64_t bucket(int index) const {
    return buckets_.empty() ? 0
                            : buckets_[static_cast<std::size_t>(index)];
  }

  /// Indices of every non-empty bucket, ascending.
  std::vector<int> nonempty_buckets() const {
    std::vector<int> out;
    for (int i = 0; i < kBucketCount; ++i)
      if (bucket(i) > 0) out.push_back(i);
    return out;
  }

  /// Deterministic quantile estimate: walk to the bucket holding the
  /// 0-based rank floor(q*(count-1)), interpolate linearly by in-bucket
  /// position, clamp to the observed range.  q<=0 is the min, q>=1 the
  /// max, and an empty histogram reports 0.
  double quantile(double q) const {
    if (base_.count == 0) return 0.0;
    if (q <= 0.0) return base_.min_or_zero();
    if (q >= 1.0) return base_.max_or_zero();
    const std::uint64_t rank = static_cast<std::uint64_t>(
        q * static_cast<double>(base_.count - 1));
    std::uint64_t before = 0;
    for (int i = 0; i < kBucketCount; ++i) {
      const std::uint64_t c = bucket(i);
      if (c == 0) continue;
      if (before + c > rank) {
        const double within = (static_cast<double>(rank - before) + 0.5) /
                              static_cast<double>(c);
        const double v =
            bucket_lo(i) + (bucket_hi(i) - bucket_lo(i)) * within;
        return std::clamp(v, base_.min_or_zero(), base_.max_or_zero());
      }
      before += c;
    }
    return base_.max_or_zero();
  }

  friend bool operator==(const Histogram& a, const Histogram& b) {
    if (a.base_.count != b.base_.count || a.base_.sum != b.base_.sum ||
        a.min_or_zero() != b.min_or_zero() ||
        a.max_or_zero() != b.max_or_zero())
      return false;
    for (int i = 0; i < kBucketCount; ++i)
      if (a.bucket(i) != b.bucket(i)) return false;
    return true;
  }

 private:
  /// Lazily sized to kBucketCount on first add, so an unrecorded
  /// Histogram costs three words, not 4 KiB.
  std::vector<std::uint64_t> buckets_;
  Distribution base_;
};

}  // namespace topomap::obs
