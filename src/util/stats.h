// Streaming statistics and a fixed-bucket histogram for simulation metrics.

#ifndef TAPEJUKE_UTIL_STATS_H_
#define TAPEJUKE_UTIL_STATS_H_

#include <cstdint>
#include <limits>
#include <vector>

namespace tapejuke {

/// Accumulates count / mean / variance / min / max in one pass (Welford).
class RunningStat {
 public:
  RunningStat() = default;

  /// Adds one observation.
  void Add(double x);

  /// Merges another accumulator into this one.
  void Merge(const RunningStat& other);

  int64_t count() const { return count_; }
  double mean() const { return count_ > 0 ? mean_ : 0.0; }
  /// Sample variance (n-1 denominator); 0 for fewer than two observations.
  double variance() const;
  double stddev() const;
  double min() const { return count_ > 0 ? min_ : 0.0; }
  double max() const { return count_ > 0 ? max_ : 0.0; }
  double sum() const { return mean_ * static_cast<double>(count_); }

  /// Half-width of the ~95% confidence interval of the mean (normal
  /// approximation); 0 for fewer than two observations.
  double ci95_half_width() const;

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Histogram over [lo, hi) with uniform buckets plus underflow/overflow.
///
/// Used for request-latency distributions; supports quantile queries with
/// linear interpolation inside the containing bucket.
class Histogram {
 public:
  /// Creates a histogram with `buckets` uniform buckets spanning [lo, hi).
  /// Requires lo < hi and buckets >= 1.
  Histogram(double lo, double hi, int buckets);

  /// Records one observation (out-of-range values go to under/overflow).
  void Add(double x);

  /// Merges `other` into this histogram; the bucket layouts (lo, hi,
  /// bucket count) must match exactly.
  void Merge(const Histogram& other);

  int64_t count() const { return count_; }
  int64_t underflow() const { return underflow_; }
  int64_t overflow() const { return overflow_; }

  /// Approximate quantile `q` in [0, 1]. Out-of-range mass clamps to the
  /// histogram bounds. Returns 0 for an empty histogram.
  double Quantile(double q) const;

  /// Like Quantile, but when the target mass lands in the overflow bucket
  /// (observations >= hi), returns `overflow_value` instead of silently
  /// saturating at hi. Callers that track the true maximum out of band
  /// (e.g. a RunningStat) pass it here so tail quantiles stay honest past
  /// the histogram range.
  double Quantile(double q, double overflow_value) const;

 private:
  double lo_;
  double hi_;
  double bucket_width_;
  std::vector<int64_t> counts_;
  int64_t count_ = 0;
  int64_t underflow_ = 0;
  int64_t overflow_ = 0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_UTIL_STATS_H_
