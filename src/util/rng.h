// Deterministic pseudo-random number generation.
//
// All stochastic behaviour in the simulator flows through Rng so that every
// experiment is exactly reproducible from its seed. The generator is
// xoshiro256** seeded via SplitMix64, which is fast, high quality, and has a
// stable cross-platform specification (unlike std::mt19937 distributions,
// whose outputs vary across standard library implementations).

#ifndef TAPEJUKE_UTIL_RNG_H_
#define TAPEJUKE_UTIL_RNG_H_

#include <cstdint>

#include "util/check.h"

namespace tapejuke {

/// SplitMix64 step; used for seeding and as a cheap hash.
uint64_t SplitMix64(uint64_t* state);

/// Deterministic xoshiro256** generator with explicit distributions.
class Rng {
 public:
  /// Seeds the generator. Two Rng instances with equal seeds produce
  /// identical streams on all platforms.
  explicit Rng(uint64_t seed);

  /// Returns the next raw 64-bit output.
  uint64_t NextUint64();

  /// Returns an unbiased uniform integer in [0, bound). `bound` must be > 0.
  uint64_t UniformUint64(uint64_t bound);

  /// Returns a uniform double in [0, 1).
  double UniformDouble();

  /// Returns a uniform double in [lo, hi). Requires lo < hi.
  double UniformDouble(double lo, double hi);

  /// Returns true with probability `p` (clamped to [0, 1]).
  bool Bernoulli(double p);

  /// Returns an exponentially distributed sample with the given mean (> 0).
  double Exponential(double mean);

  /// Returns a standard normal sample (Box-Muller, deterministic pairing).
  double Normal(double mean, double stddev);

 private:
  static uint64_t RotL(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_UTIL_RNG_H_
