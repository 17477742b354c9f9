// Unit and statistical tests for the deterministic PRNG.

#include "util/rng.h"

#include <gtest/gtest.h>

#include <cmath>

namespace tapejuke {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.NextUint64() == b.NextUint64()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformDoubleInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, UniformUint64IsUnbiased) {
  Rng rng(13);
  // Draw mod-3 buckets and check they are even to ~1%.
  int counts[3] = {0, 0, 0};
  const int n = 300000;
  for (int i = 0; i < n; ++i) ++counts[rng.UniformUint64(3)];
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 1.0 / 3, 0.01);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.4) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.4, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(23);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.Exponential(60.0);
  EXPECT_NEAR(sum / n, 60.0, 1.0);
}

TEST(Rng, ExponentialIsNonNegative) {
  Rng rng(29);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.Exponential(1.0), 0.0);
}

TEST(Rng, NormalMomentsMatch) {
  Rng rng(31);
  double sum = 0;
  double sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(SplitMix64, KnownSequenceIsDeterministic) {
  uint64_t s1 = 0;
  uint64_t s2 = 0;
  for (int i = 0; i < 10; ++i) {
    ASSERT_EQ(SplitMix64(&s1), SplitMix64(&s2));
  }
}

}  // namespace
}  // namespace tapejuke
