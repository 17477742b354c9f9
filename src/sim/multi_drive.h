// Multi-drive facade: the pre-unification MultiDriveSimulator interface,
// kept only for the benchmark package. D-drive jukeboxes run on Simulator
// (Jukebox::SetNumDrives); this adapter builds the greedy scheduler the old
// dispatcher hard-wired and a D-drive Simulator around it.

#ifndef TAPEJUKE_SIM_MULTI_DRIVE_H_
#define TAPEJUKE_SIM_MULTI_DRIVE_H_

#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"

namespace tapejuke {

/// Multi-drive extension parameters.
struct MultiDriveConfig {
  int32_t num_drives = 2;
  TapePolicy policy = TapePolicy::kMaxBandwidth;
  /// Insert arrivals into running sweeps (the dynamic incremental rule).
  bool dynamic_insertion = true;
  SchedulerOptions options;
};

/// A greedy scheduler and a Simulator over `num_drives` drives of one
/// jukebox (fault-free: the catalog is const).
class MultiDriveSimulator {
 public:
  MultiDriveSimulator(Jukebox* jukebox, const Catalog* catalog,
                      const MultiDriveConfig& drives,
                      const SimulationConfig& sim)
      : scheduler_(WithDrives(jukebox, drives.num_drives), catalog,
                   drives.policy, drives.dynamic_insertion, drives.options),
        sim_(jukebox, catalog, &scheduler_, sim) {}

  SimulationResult Run() { return sim_.Run(); }

 private:
  static Jukebox* WithDrives(Jukebox* jukebox, int32_t num_drives) {
    jukebox->SetNumDrives(num_drives);
    return jukebox;
  }

  GreedyScheduler scheduler_;
  Simulator sim_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_MULTI_DRIVE_H_
