// Unit tests for RunningStat and Histogram.

#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "util/rng.h"

namespace tapejuke {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.ci95_half_width(), 0.0);
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.Add(x);
  EXPECT_EQ(s.count(), 8);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeEqualsCombinedStream) {
  Rng rng(5);
  RunningStat all;
  RunningStat a;
  RunningStat b;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(3.0, 1.5);
    all.Add(x);
    (i % 2 == 0 ? a : b).Add(x);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-7);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStat, MergeWithEmpty) {
  RunningStat a;
  a.Add(1.0);
  a.Add(3.0);
  RunningStat empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 2);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 2);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStat, Ci95ShrinksWithSamples) {
  Rng rng(6);
  RunningStat small;
  RunningStat large;
  for (int i = 0; i < 100; ++i) small.Add(rng.UniformDouble());
  for (int i = 0; i < 10000; ++i) large.Add(rng.UniformDouble());
  EXPECT_GT(small.ci95_half_width(), large.ci95_half_width());
}

TEST(Histogram, CountsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-1.0);
  h.Add(0.0);
  h.Add(5.5);
  h.Add(9.999);
  h.Add(10.0);
  h.Add(100.0);
  EXPECT_EQ(h.count(), 6);
  EXPECT_EQ(h.underflow(), 1);
  EXPECT_EQ(h.overflow(), 2);
}

TEST(Histogram, QuantileOfUniformData) {
  Histogram h(0.0, 1.0, 100);
  Rng rng(9);
  for (int i = 0; i < 100000; ++i) h.Add(rng.UniformDouble());
  EXPECT_NEAR(h.Quantile(0.5), 0.5, 0.02);
  EXPECT_NEAR(h.Quantile(0.95), 0.95, 0.02);
  EXPECT_NEAR(h.Quantile(0.05), 0.05, 0.02);
}

TEST(Histogram, QuantileEmptyIsZero) {
  Histogram h(0.0, 1.0, 4);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
}

TEST(Histogram, QuantileClampsOutOfRangeMass) {
  Histogram h(0.0, 1.0, 4);
  for (int i = 0; i < 10; ++i) h.Add(-5.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.1), 0.0);
}

TEST(Histogram, QuantileInOverflowMassReportsOverflowValue) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 90; ++i) h.Add(5.0);
  for (int i = 0; i < 10; ++i) h.Add(1e9);  // beyond range
  // p50 resolves inside the buckets; p99 lands in the overflow mass and
  // must report the caller-supplied value, not saturate at hi.
  EXPECT_NEAR(h.Quantile(0.50, 1e9), 5.0, 1.0 + 1e-9);
  EXPECT_DOUBLE_EQ(h.Quantile(0.99, 1e9), 1e9);
  // The single-argument form keeps the old saturating behavior.
  EXPECT_DOUBLE_EQ(h.Quantile(0.99), 10.0);
}

TEST(Histogram, MergeSumsAllCounters) {
  Histogram a(0.0, 10.0, 10);
  Histogram b(0.0, 10.0, 10);
  a.Add(-1.0);
  a.Add(2.5);
  a.Add(50.0);
  b.Add(2.5);
  b.Add(7.5);
  b.Add(60.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 6);
  EXPECT_EQ(a.underflow(), 1);
  EXPECT_EQ(a.overflow(), 2);
  // Two observations at 2.5 out of three in-range below 5 -> median there.
  EXPECT_NEAR(a.Quantile(0.5), 2.5, 1.0 + 1e-9);
}

TEST(Histogram, MergedQuantileMatchesSingleHistogram) {
  Histogram merged(0.0, 1.0, 100);
  Histogram whole(0.0, 1.0, 100);
  Histogram part(0.0, 1.0, 100);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) {
    const double x = rng.UniformDouble();
    whole.Add(x);
    (i % 2 == 0 ? merged : part).Add(x);
  }
  merged.Merge(part);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_DOUBLE_EQ(merged.Quantile(0.5), whole.Quantile(0.5));
  EXPECT_DOUBLE_EQ(merged.Quantile(0.95), whole.Quantile(0.95));
}

}  // namespace
}  // namespace tapejuke
