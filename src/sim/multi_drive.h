// Pre-unification simulator facades, kept only because perfbench/ builds
// against them: MultiDriveSimulator, WritebackSimulator and
// LifecycleSimulator. Each sets one config value and runs a Simulator;
// everything else runs these scenarios through ExperimentRunner::Run
// (JukeboxConfig::num_drives, SimulationConfig::writes and ::lifecycle).

#ifndef TAPEJUKE_SIM_MULTI_DRIVE_H_
#define TAPEJUKE_SIM_MULTI_DRIVE_H_

#include <vector>

#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"

namespace tapejuke {

/// Multi-drive extension parameters.
struct MultiDriveConfig {
  int32_t num_drives = 2;
};

/// A dynamic max-bandwidth scheduler with default options and a Simulator
/// over `num_drives` drives of one jukebox (fault-free: the catalog is
/// const). The one caller of Jukebox::SetNumDrives: the jukebox arrives
/// built.
class MultiDriveSimulator {
 public:
  MultiDriveSimulator(Jukebox* jukebox, const Catalog* catalog,
                      const MultiDriveConfig& drives,
                      const SimulationConfig& sim)
      : scheduler_(WithDrives(jukebox, drives.num_drives), catalog,
                   TapePolicy::kMaxBandwidth, /*dynamic=*/true),
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

/// A Simulator with `sim.writes` set to `writes`.
class WritebackSimulator : public Simulator {
 public:
  WritebackSimulator(Jukebox* jukebox, const Catalog* catalog,
                     Scheduler* scheduler, SimulationConfig sim,
                     const WritePathConfig& writes)
      : Simulator(jukebox, catalog, scheduler, (sim.writes = writes, sim)) {}
};

/// A Simulator with `sim.lifecycle` set to `lifecycle`.
class LifecycleSimulator : private Simulator {
 public:
  LifecycleSimulator(Jukebox* jukebox, Catalog* catalog, Scheduler* scheduler,
                     SimulationConfig sim, const LifecycleConfig& lifecycle)
      : Simulator(jukebox, catalog, scheduler,
                  (sim.lifecycle = lifecycle, sim)) {}

  /// Runs to completion; call once. Returns per-epoch performance.
  std::vector<EpochStats> Run() {
    result_ = Simulator::Run();
    return result_.lifecycle.epochs;
  }

  /// The rest of the run's result; valid after Run.
  const SimulationResult& result() const { return result_; }
  int64_t replicas_written() const {
    return result_.lifecycle.replicas_written;
  }
  int64_t fill_target() const { return result_.lifecycle.fill_target; }

 private:
  SimulationResult result_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_MULTI_DRIVE_H_
