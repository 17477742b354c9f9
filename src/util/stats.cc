#include "util/stats.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace tapejuke {

void RunningStat::Add(double x) {
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

void RunningStat::Merge(const RunningStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double total = static_cast<double>(count_ + other.count_);
  const double delta = other.mean_ - mean_;
  m2_ += other.m2_ + delta * delta * static_cast<double>(count_) *
                         static_cast<double>(other.count_) / total;
  mean_ += delta * static_cast<double>(other.count_) / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double RunningStat::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::ci95_half_width() const {
  if (count_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(count_));
}

Histogram::Histogram(double lo, double hi, int buckets)
    : lo_(lo), hi_(hi), bucket_width_((hi - lo) / buckets), counts_(buckets) {
  TJ_CHECK_LT(lo, hi);
  TJ_CHECK_GE(buckets, 1);
}

void Histogram::Add(double x) {
  ++count_;
  if (x < lo_) {
    ++underflow_;
    return;
  }
  if (x >= hi_) {
    ++overflow_;
    return;
  }
  auto idx = static_cast<size_t>((x - lo_) / bucket_width_);
  idx = std::min(idx, counts_.size() - 1);  // guard FP edge at hi_
  ++counts_[idx];
}

void Histogram::Merge(const Histogram& other) {
  TJ_CHECK_EQ(lo_, other.lo_);
  TJ_CHECK_EQ(hi_, other.hi_);
  TJ_CHECK_EQ(counts_.size(), other.counts_.size());
  for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  count_ += other.count_;
  underflow_ += other.underflow_;
  overflow_ += other.overflow_;
}

double Histogram::Quantile(double q) const { return Quantile(q, hi_); }

double Histogram::Quantile(double q, double overflow_value) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  double cum = static_cast<double>(underflow_);
  if (target <= cum) return lo_;
  for (size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (target <= next && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return lo_ + (static_cast<double>(i) + frac) * bucket_width_;
    }
    cum = next;
  }
  // The quantile lands in the overflow mass (observations >= hi).
  return overflow_value;
}

}  // namespace tapejuke
