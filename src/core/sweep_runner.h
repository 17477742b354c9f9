// Parallel sweep execution: runs a grid of independent experiment points
// across a worker pool and collects results in input order.
//
// The paper's study is a grid of independent simulation points (algorithm
// x queue length x PH/RH x replica count), so the sweep layer is
// embarrassingly parallel. Determinism is preserved by construction:
//
//  * Every point's RNG seed is derived from (base_seed, point index) with
//    a SplitMix64 mix, never from thread identity or execution order, so a
//    sweep produces bit-identical results at any thread count — including
//    --threads=1, which runs the points inline in index order.
//  * Results are collected into slot `i` for point `i`; callers see input
//    order regardless of completion order.
//
// Usage:
//
//   SweepOptions options;
//   options.threads = 8;
//   options.base_seed = 1;
//   SweepRunner runner(options);
//   std::vector<ExperimentResult> results = runner.Run(points).value();

#ifndef TAPEJUKE_CORE_SWEEP_RUNNER_H_
#define TAPEJUKE_CORE_SWEEP_RUNNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/experiment.h"
#include "core/farm.h"
#include "util/status.h"

namespace tapejuke {

/// Sweep-wide execution knobs.
struct SweepOptions {
  /// Worker count; <= 0 selects hardware concurrency.
  int threads = 0;
  /// Seed the per-point seeds are derived from: point i runs with workload
  /// seed DerivePointSeed(base_seed, i), so points are statistically
  /// independent and the sweep is reproducible from base_seed alone.
  uint64_t base_seed = 1;
};

/// Deterministic per-point seed: a SplitMix64 mix of (base_seed, index).
/// Distinct indices yield distinct, well-scrambled seeds; the result never
/// depends on thread count or execution order.
uint64_t DerivePointSeed(uint64_t base_seed, uint64_t point_index);

/// Runs experiment grids across a fixed-size thread pool.
class SweepRunner {
 public:
  explicit SweepRunner(const SweepOptions& options = SweepOptions{});

  const SweepOptions& options() const { return options_; }

  /// The config point `index` actually runs with: `config` with the
  /// derived per-point workload seed applied.
  ExperimentConfig EffectiveConfig(ExperimentConfig config,
                                   size_t index) const;
  FarmConfig EffectiveFarmConfig(FarmConfig config, size_t index) const;

  /// Validates every point, then runs them all across the pool. Results
  /// are in input order. Fails fast (before running anything) if any
  /// point's config fails Validate(), and propagates the first per-point
  /// run error otherwise; error messages name the failing point index.
  StatusOr<std::vector<ExperimentResult>> Run(
      const std::vector<ExperimentConfig>& points) const;

  /// Farm variant of Run() for FarmConfig grids.
  StatusOr<std::vector<FarmResult>> RunFarms(
      const std::vector<FarmConfig>& points) const;

  /// Escape hatch for benches with bespoke simulators, and the farm's box
  /// sharding: runs fn(point_index) for every index across a pool of
  /// min(threads, num_points) workers (inline, in index order, when that
  /// is 1) and returns the first non-OK status (lowest index wins,
  /// deterministically). `fn` is called concurrently for distinct indices
  /// and must only touch per-index state. An exception escaping `fn` is captured as an
  /// Internal status for that point rather than terminating the process.
  Status RunIndexed(size_t num_points,
                    const std::function<Status(size_t)>& fn) const;

 private:
  SweepOptions options_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_CORE_SWEEP_RUNNER_H_
