// The facades perfbench/ builds against (sim/multi_drive.h) and
// ExperimentRunner::Run, given the same config, must run the same
// program: byte-identical results JSON and the same drive, write-path and
// fill statistics.

#include "sim/multi_drive.h"

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "layout/placement.h"
#include "sched/envelope_scheduler.h"
#include "test_util.h"

namespace tapejuke {
namespace {

/// The paper's base point (PH-10 RH-40 NR-0, dynamic max-bandwidth) at
/// queue 60, shortened.
ExperimentConfig BaseConfig() {
  ExperimentConfig config;
  config.layout.hot_fraction = 0.10;
  config.sim.duration_seconds = 200'000;
  config.sim.warmup_seconds = 20'000;
  config.sim.workload.queue_length = 60;
  config.sim.workload.hot_request_fraction = 0.40;
  config.sim.workload.seed = 17;
  config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  return config;
}

TEST(FacadeParity, MultiDriveSimulatorMatchesTheRunner) {
  for (const int32_t drives : {1, 2, 3}) {
    ExperimentConfig config = BaseConfig();
    // The facade takes a one-drive jukebox with its layout already built.
    Jukebox jukebox(config.jukebox);
    const Catalog catalog =
        LayoutBuilder::Build(&jukebox, config.layout).value();
    MultiDriveSimulator facade(&jukebox, &catalog, MultiDriveConfig{drives},
                               config.sim);
    const SimulationResult via_facade = facade.Run();

    config.jukebox.num_drives = drives;
    const ExperimentResult via_runner = RunExperiment(config);
    EXPECT_EQ(ResultsJson(via_facade), ResultsJson(via_runner.sim))
        << drives << " drives";
    EXPECT_EQ(via_facade.claim_conflicts, via_runner.sim.claim_conflicts)
        << drives << " drives";
    EXPECT_EQ(jukebox.counters().robot_wait_seconds,
              via_runner.jukebox_counters.robot_wait_seconds)
        << drives << " drives";
    if (drives > 1) {
      EXPECT_GT(via_runner.jukebox_counters.robot_wait_seconds, 0.0);
    }
  }
}

TEST(FacadeParity, WritebackSimulatorMatchesTheRunner) {
  ExperimentConfig config = BaseConfig();
  WritePathConfig writes;
  writes.mean_write_interarrival_seconds = 120;
  Jukebox jukebox(config.jukebox);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, config.layout).value();
  GreedyScheduler scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth,
                            /*dynamic=*/true);
  WritebackSimulator facade(&jukebox, &catalog, &scheduler, config.sim,
                            writes);
  const SimulationResult via_facade = facade.Run();

  config.sim.writes = writes;
  const ExperimentResult via_runner = RunExperiment(config);
  EXPECT_EQ(ResultsJson(via_facade), ResultsJson(via_runner.sim));
  EXPECT_GT(via_facade.write_path.blocks_flushed, 0);
  EXPECT_EQ(via_facade.write_path, via_runner.sim.write_path);
}

TEST(FacadeParity, LifecycleSimulatorMatchesTheRunner) {
  ExperimentConfig config = BaseConfig();
  // Spare capacity at every tape's end, as bench/ext_lifecycle starts.
  LayoutSpec replicated;
  replicated.layout = HotLayout::kVertical;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  config.layout = LayoutSpec{};
  config.layout.layout = HotLayout::kVertical;
  config.layout.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(Jukebox(config.jukebox), replicated);
  config.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  config.sim.warmup_seconds = 0;
  LifecycleConfig lifecycle;
  lifecycle.fill_budget_seconds = 240;

  Jukebox jukebox(config.jukebox);
  Catalog catalog = LayoutBuilder::Build(&jukebox, config.layout).value();
  EnvelopeScheduler scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth);
  LifecycleSimulator facade(&jukebox, &catalog, &scheduler, config.sim,
                            lifecycle);
  const std::vector<EpochStats> epochs = facade.Run();

  config.sim.lifecycle = lifecycle;
  const ExperimentResult via_runner = RunExperiment(config);
  EXPECT_EQ(ResultsJson(facade.result()), ResultsJson(via_runner.sim));
  EXPECT_EQ(epochs, via_runner.sim.lifecycle.epochs);
  EXPECT_GT(facade.replicas_written(), 0);
  EXPECT_EQ(facade.replicas_written(),
            via_runner.sim.lifecycle.replicas_written);
  EXPECT_EQ(facade.fill_target(), via_runner.sim.lifecycle.fill_target);
}

}  // namespace
}  // namespace tapejuke
