// Tests for multi-drive jukeboxes: D drives sharing one Simulator, one
// scheduler, the tape pool and the robot arm.

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "layout/placement.h"
#include "sched/greedy_scheduler.h"
#include "sched/validating_scheduler.h"
#include "sim/lifecycle.h"
#include "sim/write_path.h"
#include "test_util.h"

namespace tapejuke {
namespace {

SimulationConfig ShortSim(int64_t queue = 60) {
  SimulationConfig config;
  config.duration_seconds = 300'000;
  config.warmup_seconds = 30'000;
  config.workload.queue_length = queue;
  config.workload.seed = 31;
  return config;
}

SimulationResult RunMulti(int32_t num_drives, int64_t queue = 60,
                          double* robot_wait_seconds = nullptr) {
  DriveRig rig(num_drives);
  const SimulationResult result = rig.Run(ShortSim(queue));
  if (robot_wait_seconds != nullptr) {
    *robot_wait_seconds = rig.jukebox.counters().robot_wait_seconds;
  }
  return result;
}

/// Request conservation and the per-drive time-in-state identity.
void ExpectSound(const SimulationResult& result, int num_drives) {
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.expired_requests + result.shed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  ASSERT_EQ(result.time_in_state.size(), static_cast<size_t>(num_drives));
  for (const obs::DriveTimeInState& tis : result.time_in_state) {
    EXPECT_NEAR(tis.Total(), result.measured_seconds,
                1e-9 * result.measured_seconds);
  }
}

/// Runs `run` twice with the same seed: the results must be byte-equal.
/// Returns the first result.
SimulationResult RunTwiceIdentical(
    const std::function<SimulationResult()>& run) {
  const SimulationResult first = run();
  EXPECT_EQ(ResultsJson(first), ResultsJson(run()));
  return first;
}

TEST(MultiDriveDeathTest, ZeroDrivesAborts) {
  Jukebox jukebox(JukeboxConfig{});
  EXPECT_DEATH(jukebox.SetNumDrives(0), "at least one drive");
}

TEST(MultiDrive, SingleDriveMatchesSingleDriveSimulatorExactly) {
  const SimulationResult multi = RunMulti(1);
  Jukebox jukebox(JukeboxConfig{});
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  GreedyScheduler sched(&jukebox, &catalog, TapePolicy::kMaxBandwidth,
                        /*dynamic=*/true);
  Simulator sim(&jukebox, &catalog, &sched, ShortSim());
  EXPECT_EQ(ResultsJson(multi), ResultsJson(sim.Run()));
}

TEST(MultiDrive, MoreDrivesMoreThroughputLessDelay) {
  const SimulationResult one = RunMulti(1, /*queue=*/120);
  const SimulationResult two = RunMulti(2, /*queue=*/120);
  const SimulationResult four = RunMulti(4, /*queue=*/120);
  EXPECT_GT(two.requests_per_minute, 1.3 * one.requests_per_minute);
  EXPECT_GT(four.requests_per_minute, two.requests_per_minute);
  EXPECT_LT(two.mean_delay_seconds, one.mean_delay_seconds);
  EXPECT_LT(four.mean_delay_seconds, two.mean_delay_seconds);
}

TEST(MultiDrive, ScalingIsRoughlyLinearAtHighLoad) {
  const SimulationResult one = RunMulti(1, 120);
  const SimulationResult four = RunMulti(4, 120);
  // Competing effects keep scaling near (but not exactly) 4x: robot
  // contention, claim conflicts, and per-drive batch fragmentation hurt;
  // overlapping one drive's rewind/eject with the others' reads helps
  // (that dead time is serialized in the single-drive pipeline), so mild
  // super-linearity is possible.
  const double speedup = four.requests_per_minute / one.requests_per_minute;
  EXPECT_GT(speedup, 3.0);
  EXPECT_LT(speedup, 5.0);
}

TEST(MultiDrive, RobotContentionIsObserved) {
  double one_drive_wait = -1;
  RunMulti(1, 120, &one_drive_wait);
  EXPECT_EQ(one_drive_wait, 0.0);
  double wait = 0;
  RunMulti(4, 120, &wait);
  EXPECT_GT(wait, 0.0);
}

TEST(MultiDrive, Deterministic) {
  const SimulationResult a = RunMulti(3);
  const SimulationResult b = RunMulti(3);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_DOUBLE_EQ(a.mean_delay_seconds, b.mean_delay_seconds);
}

TEST(MultiDrive, ClosedPopulationIsConserved) {
  const SimulationResult result = RunMulti(2, 50);
  EXPECT_NEAR(result.mean_outstanding, 50.0, 0.5);
}

// Completed processes think before their next request at any drive
// count, so fewer requests are outstanding and fewer complete.
TEST(MultiDrive, ThinkTimeHoldsAtTwoDrives) {
  SimulationConfig busy = ShortSim(60);
  SimulationConfig thinking = busy;
  thinking.workload.think_time_seconds = 20'000;
  const SimulationResult eager = DriveRig(2).Run(busy);
  const SimulationResult idle = DriveRig(2).Run(thinking);
  EXPECT_LT(idle.mean_outstanding, 60.0);
  EXPECT_LT(idle.requests_per_minute, eager.requests_per_minute);
  ExpectSound(idle, 2);
}

TEST(MultiDrive, OpenModelWorks) {
  DriveRig rig(2);
  SimulationConfig sim_config = ShortSim();
  sim_config.workload.model = QueuingModel::kOpen;
  sim_config.workload.mean_interarrival_seconds = 60;
  const SimulationResult result = rig.Run(sim_config);
  EXPECT_GT(result.completed_requests, 100);
  // Two drives comfortably absorb a 1-per-minute stream.
  EXPECT_NEAR(result.requests_per_minute, 1.0, 0.2);
}

TEST(MultiDrive, ReplicationHelpsHereToo) {
  LayoutSpec replicated;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  const SimulationResult a = DriveRig(2).Run(ShortSim(120));
  const SimulationResult b = DriveRig(2, replicated).Run(ShortSim(120));
  EXPECT_GT(b.requests_per_minute, a.requests_per_minute);
}

TEST(MultiDriveDeathTest, MoreDrivesThanTapesAborts) {
  Jukebox jukebox(JukeboxConfig{});
  EXPECT_DEATH(jukebox.SetNumDrives(99), "more drives than tapes");
}

// --- Every scheduler and background producer on two drives ---------------

TEST(MultiDriveCombos, FifoRunsOnTwoDrives) {
  const SimulationResult result = RunTwiceIdentical(
      [] { return DriveRig(2, LayoutSpec{}, "fifo").Run(ShortSim(60)); });
  EXPECT_GT(result.completed_requests, 100);
  ExpectSound(result, 2);
}

TEST(MultiDriveCombos, FifoSmallPopulationDoesNotDeadlock) {
  // Two requests often wait on one tape: the drive holding it serves them
  // while the other idles, and neither stalls.
  const SimulationResult result =
      DriveRig(2, LayoutSpec{}, "fifo").Run(ShortSim(/*queue=*/2));
  EXPECT_GT(result.completed_requests, 100);
  EXPECT_NEAR(result.mean_outstanding, 2.0, 0.1);
  ExpectSound(result, 2);
}

TEST(MultiDriveCombos, ValidatedEnvelopeRunsOnTwoDrives) {
  LayoutSpec layout;
  layout.num_replicas = 2;
  layout.start_position = 1.0;
  int64_t served = 0;
  const SimulationResult result = RunTwiceIdentical([&] {
    DriveRig rig(2, layout);
    AlgorithmSpec spec =
        AlgorithmSpec::Parse("envelope-max-bandwidth").value();
    spec.options.validate_envelope = true;
    ValidatingScheduler scheduler(
        CreateScheduler(spec, &rig.jukebox, &rig.catalog), &rig.jukebox,
        &rig.catalog);
    Simulator sim(&rig.jukebox, &rig.catalog, &scheduler, ShortSim(60));
    const SimulationResult out = sim.Run();
    served = scheduler.requests_served();
    EXPECT_EQ(scheduler.outstanding(), out.outstanding_at_end);
    return out;
  });
  EXPECT_GT(served, 100);
  ExpectSound(result, 2);
}

TEST(MultiDriveCombos, ScrubRepairUnderFaultsRunsOnTwoDrives) {
  LayoutSpec layout;
  layout.num_replicas = 2;
  layout.start_position = 1.0;
  SimulationConfig sim = ShortSim();
  // Light open load: scrub only uses idle drives.
  sim.workload.model = QueuingModel::kOpen;
  sim.workload.mean_interarrival_seconds = 600;
  sim.faults.permanent_media_error_prob = 0.01;
  sim.faults.transient_read_error_prob = 0.02;
  sim.faults.robot_fault_prob = 0.01;
  sim.faults.drive_mtbf_seconds = 40'000;
  sim.faults.drive_mttr_seconds = 2'000;
  sim.repair.enable_repair = true;
  sim.repair.scrub_interval_seconds = 20'000;
  const SimulationResult result =
      RunTwiceIdentical([&] { return DriveRig(2, layout).Run(sim); });
  ASSERT_TRUE(result.repair_enabled);
  EXPECT_GT(result.repair.scrub_blocks_read, 0);
  EXPECT_GT(result.faults.drive_failures, 0);
  EXPECT_GT(result.completed_requests, 100);
  ExpectSound(result, 2);
  double background = 0;
  for (const obs::DriveTimeInState& tis : result.time_in_state) {
    background += tis[obs::DriveActivity::kBackground];
  }
  EXPECT_GT(background, 0.0);
}

TEST(MultiDriveCombos, WritePathRunsOnTwoDrives) {
  WritePathConfig writes;
  writes.mean_write_interarrival_seconds = 200;
  int64_t flushed = 0;
  const SimulationResult result = RunTwiceIdentical([&] {
    DriveRig rig(2);
    WriteBuffer buffer(&rig.jukebox, &rig.catalog, writes, /*seed=*/7,
                       ShortSim().duration_seconds);
    Simulator sim(&rig.jukebox, &rig.catalog, rig.scheduler.get(),
                  ShortSim(40), &buffer);
    const SimulationResult out = sim.Run();
    flushed = buffer.stats().blocks_flushed;
    return out;
  });
  EXPECT_GT(flushed, 0);
  EXPECT_GT(result.completed_requests, 100);
  ExpectSound(result, 2);
}

TEST(MultiDriveCombos, LifecycleFillRunsOnTwoDrives) {
  // Spare capacity at every tape's end for the replicas (the §4.8 start).
  LayoutSpec replicated;
  replicated.layout = HotLayout::kVertical;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  LayoutSpec spare;
  spare.layout = HotLayout::kVertical;
  spare.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(Jukebox(JukeboxConfig{}), replicated);
  LifecycleConfig lifecycle;
  lifecycle.fill_budget_seconds = 240;
  int64_t written = 0;
  const SimulationResult result = RunTwiceIdentical([&] {
    DriveRig rig(2, spare);
    const SimulationConfig sim = ShortSim();
    ReplicaFiller filler(&rig.jukebox, &rig.catalog, lifecycle,
                         sim.duration_seconds);
    Simulator simulator(&rig.jukebox,
                        static_cast<const Catalog*>(&rig.catalog),
                        rig.scheduler.get(), sim, &filler);
    const SimulationResult out = simulator.Run();
    written = filler.replicas_written();
    return out;
  });
  EXPECT_GT(written, 0);
  EXPECT_GT(result.completed_requests, 100);
  ExpectSound(result, 2);
}

}  // namespace
}  // namespace tapejuke
