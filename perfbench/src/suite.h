// The benchmark's workloads: each is a list of grids of simulation points,
// built from the workload seed alone.
//
// Grids that mirror a repo bench keep that bench's name, point order and
// per-point seed derivation (DerivePointSeed(seed, index within the grid)),
// so a point's results equal the bench's results/<bench>.json entry at the
// same --seed.

#ifndef PERFBENCH_SUITE_H_
#define PERFBENCH_SUITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/tapejuke.h"
#include "sim/lifecycle.h"
#include "sim/write_path.h"

namespace perfbench {

/// Which public simulator loop runs a point.
enum class Engine {
  kSimulator,   ///< ExperimentRunner / Simulator (single drive)
  kMultiDrive,  ///< MultiDriveSimulator (no Scheduler object)
  kWriteback,   ///< WritebackSimulator
  kLifecycle,   ///< LifecycleSimulator
  kFarm,        ///< FarmSimulator
};

struct Point {
  std::string label;
  Engine engine = Engine::kSimulator;
  /// The point's configuration before seed derivation (workload seed =
  /// the workload seed); EffectiveConfig applies the per-point seed.
  tapejuke::ExperimentConfig config;
  int32_t drives = 1;                   ///< kMultiDrive
  tapejuke::WritePathConfig writes;     ///< kWriteback
  tapejuke::LifecycleConfig lifecycle;  ///< kLifecycle
  tapejuke::FarmConfig farm;            ///< kFarm (seeds derived per box)
};

struct Grid {
  /// The repo bench this grid mirrors ("fig04_sched_no_replication"), or
  /// the workload's own name.
  std::string name;
  /// Simulator grids run through SweepRunner::Run like a bench's RunGrid;
  /// the others run point by point, like a bench's RunParallel.
  bool sweep = false;
  std::vector<Point> points;
};

struct Workload {
  std::string name;
  uint64_t seed = 1;
  std::vector<Grid> grids;
  /// The point timed with the timeline on vs off (obs.timeline_overhead_s).
  size_t timeline_grid = 0;
  size_t timeline_point = 0;

  size_t num_points() const;
};

/// Builds workload `name` for `seed`. `small` shrinks simulated lengths,
/// queue depths and the farm for the self-test. Returns false for an
/// unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, bool small,
                  Workload* out);

/// The configuration point `index` of `grid` runs with: per-point workload
/// seed DerivePointSeed(seed, index), as SweepRunner and the benches apply.
tapejuke::ExperimentConfig EffectiveConfig(const Point& point, size_t index);

/// The configuration box `index` of a farm runs with (the FarmSimulator's
/// split: Poisson thinning or the fixed closed-population split, and the
/// per-box derived seed).
tapejuke::ExperimentConfig FarmBoxConfig(const tapejuke::FarmConfig& farm,
                                         int32_t index);

}  // namespace perfbench

#endif  // PERFBENCH_SUITE_H_
