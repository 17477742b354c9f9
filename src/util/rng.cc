#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace tapejuke {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64(&sm);
  // xoshiro256** must not start in the all-zero state; SplitMix64 of any
  // seed cannot produce four zero words, but guard regardless.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::NextUint64() {
  const uint64_t result = RotL(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = RotL(s_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  TJ_CHECK_GT(bound, 0u);
  // Rejection sampling to remove modulo bias.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::UniformDouble() {
  // 53 high bits -> uniform in [0, 1) with full double precision.
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  TJ_CHECK_LT(lo, hi);
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Exponential(double mean) {
  TJ_CHECK_GT(mean, 0.0);
  // Inverse transform; 1 - U avoids log(0).
  return -mean * std::log(1.0 - UniformDouble());
}

double Rng::Normal(double mean, double stddev) {
  TJ_CHECK_GE(stddev, 0.0);
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return mean + stddev * cached_normal_;
  }
  const double u1 = 1.0 - UniformDouble();
  const double u2 = UniformDouble();
  const double radius = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = radius * std::sin(theta);
  have_cached_normal_ = true;
  return mean + stddev * radius * std::cos(theta);
}

}  // namespace tapejuke
