// Time-in-state accounting: unit tests for the charging primitive and
// the per-drive identity sum(states) == measured_seconds across
// schedulers, queuing models, fault injection, and the multi-drive farm.

#include "obs/time_in_state.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>

#include "layout/placement.h"
#include "sched/envelope_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace tapejuke {
namespace {

TEST(TimeInStateAccounting, ChargesIntervalsAndTracksCursor) {
  obs::TimeInStateAccounting accounting(/*num_drives=*/1, /*warmup_end=*/0);
  accounting.ChargeTo(0, obs::DriveActivity::kLocating, 10.0);
  accounting.ChargeTo(0, obs::DriveActivity::kReading, 25.0);
  // A charge at or before the cursor is a no-op.
  accounting.ChargeTo(0, obs::DriveActivity::kIdle, 25.0);
  accounting.ChargeTo(0, obs::DriveActivity::kIdle, 20.0);
  accounting.FinishAt(30.0);
  const obs::DriveTimeInState& tis = accounting.per_drive()[0];
  EXPECT_DOUBLE_EQ(tis[obs::DriveActivity::kLocating], 10.0);
  EXPECT_DOUBLE_EQ(tis[obs::DriveActivity::kReading], 15.0);
  EXPECT_DOUBLE_EQ(tis[obs::DriveActivity::kIdle], 5.0);
  EXPECT_DOUBLE_EQ(tis.Total(), 30.0);
  EXPECT_DOUBLE_EQ(tis.BusySeconds(), 25.0);
  EXPECT_DOUBLE_EQ(accounting.cursor(0), 30.0);
}

TEST(TimeInStateAccounting, ClipsAtWarmupBoundary) {
  obs::TimeInStateAccounting accounting(/*num_drives=*/1,
                                        /*warmup_end=*/100.0);
  // Entirely inside warm-up: excluded.
  accounting.ChargeTo(0, obs::DriveActivity::kReading, 60.0);
  // Straddles the boundary: only the post-warm-up part counts.
  accounting.ChargeTo(0, obs::DriveActivity::kLocating, 130.0);
  accounting.FinishAt(150.0);
  const obs::DriveTimeInState& tis = accounting.per_drive()[0];
  EXPECT_DOUBLE_EQ(tis[obs::DriveActivity::kReading], 0.0);
  EXPECT_DOUBLE_EQ(tis[obs::DriveActivity::kLocating], 30.0);
  EXPECT_DOUBLE_EQ(tis[obs::DriveActivity::kIdle], 20.0);
  EXPECT_DOUBLE_EQ(tis.Total(), 50.0);
}

TEST(TimeInStateAccounting, DownTimeIsNotBusy) {
  obs::TimeInStateAccounting accounting(/*num_drives=*/2, /*warmup_end=*/0);
  accounting.ChargeTo(0, obs::DriveActivity::kDown, 40.0);
  accounting.ChargeTo(1, obs::DriveActivity::kBackground, 40.0);
  accounting.FinishAt(40.0);
  EXPECT_DOUBLE_EQ(accounting.per_drive()[0].BusySeconds(), 0.0);
  EXPECT_DOUBLE_EQ(accounting.per_drive()[1].BusySeconds(), 40.0);
}

TEST(DriveActivity, NamesAreStable) {
  EXPECT_STREQ(obs::DriveActivityName(obs::DriveActivity::kIdle), "idle");
  EXPECT_STREQ(obs::DriveActivityName(obs::DriveActivity::kRobot), "robot");
  EXPECT_STREQ(obs::DriveActivityName(obs::DriveActivity::kDown), "down");
}

// --- identity across the simulators -----------------------------------

struct Rig {
  Rig(const JukeboxConfig& jb_config, const LayoutSpec& layout)
      : jukebox(jb_config),
        catalog(LayoutBuilder::Build(&jukebox, layout).value()) {}

  Jukebox jukebox;
  Catalog catalog;
};

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

SimulationConfig ShortSim(QueuingModel model) {
  SimulationConfig config;
  config.duration_seconds = 150'000;
  config.warmup_seconds = 15'000;
  config.workload.model = model;
  config.workload.queue_length = 30;
  config.workload.mean_interarrival_seconds = 120;
  config.workload.seed = 23;
  return config;
}

void ExpectIdentity(const SimulationResult& result, int num_drives) {
  ASSERT_EQ(result.time_in_state.size(),
            static_cast<size_t>(num_drives));
  const double tolerance =
      1e-6 * std::max(1.0, result.measured_seconds);
  for (const obs::DriveTimeInState& tis : result.time_in_state) {
    EXPECT_NEAR(tis.Total(), result.measured_seconds, tolerance);
  }
  EXPECT_GE(result.drive_utilization, 0.0);
  EXPECT_LE(result.drive_utilization, 1.0 + 1e-9);
  EXPECT_GE(result.p99_delay_seconds, result.p95_delay_seconds);
  EXPECT_LE(result.p99_delay_seconds, result.max_delay_seconds);
}

enum class Algo { kFifo, kGreedy, kEnvelope };

std::unique_ptr<Scheduler> MakeScheduler(Algo algo, const Rig& rig) {
  switch (algo) {
    case Algo::kFifo:
      return std::make_unique<FifoScheduler>(&rig.jukebox, &rig.catalog);
    case Algo::kGreedy:
      return std::make_unique<GreedyScheduler>(
          &rig.jukebox, &rig.catalog, TapePolicy::kMaxBandwidth,
          /*dynamic=*/true);
    case Algo::kEnvelope:
      return std::make_unique<EnvelopeScheduler>(
          &rig.jukebox, &rig.catalog, TapePolicy::kMaxBandwidth);
  }
  return nullptr;
}

class IdentityTest
    : public ::testing::TestWithParam<std::tuple<Algo, QueuingModel>> {};

TEST_P(IdentityTest, StateTimeSumsToMeasuredWindow) {
  const auto [algo, model] = GetParam();
  Rig rig(PaperJukebox(), LayoutSpec{});
  std::unique_ptr<Scheduler> scheduler = MakeScheduler(algo, rig);
  Simulator sim(&rig.jukebox, &rig.catalog, scheduler.get(),
                ShortSim(model));
  const SimulationResult result = sim.Run();
  EXPECT_GT(result.completed_requests, 0);
  ExpectIdentity(result, /*num_drives=*/1);
  // Fault-free runs never charge down or background time.
  const obs::DriveTimeInState& tis = result.time_in_state[0];
  EXPECT_DOUBLE_EQ(tis[obs::DriveActivity::kDown], 0.0);
  EXPECT_DOUBLE_EQ(tis[obs::DriveActivity::kBackground], 0.0);
  EXPECT_GT(tis[obs::DriveActivity::kReading], 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, IdentityTest,
    ::testing::Combine(::testing::Values(Algo::kFifo, Algo::kGreedy,
                                         Algo::kEnvelope),
                       ::testing::Values(QueuingModel::kClosed,
                                         QueuingModel::kOpen)));

TEST(IdentityFaults, HoldsUnderFaultInjection) {
  LayoutSpec layout;
  layout.num_replicas = 2;
  Rig rig(PaperJukebox(), layout);
  GreedyScheduler scheduler(&rig.jukebox, &rig.catalog,
                            TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  SimulationConfig config = ShortSim(QueuingModel::kClosed);
  config.faults.transient_read_error_prob = 0.05;
  config.faults.permanent_media_error_prob = 0.01;
  config.faults.whole_tape_fraction = 0.1;
  config.faults.drive_mtbf_seconds = 40'000;
  config.faults.drive_mttr_seconds = 3'000;
  config.faults.robot_fault_prob = 0.02;
  Simulator sim(&rig.jukebox, &rig.catalog, &scheduler, config);
  const SimulationResult result = sim.Run();
  ExpectIdentity(result, /*num_drives=*/1);
  // The drive failures configured above must show up as down time.
  EXPECT_GT(result.time_in_state[0][obs::DriveActivity::kDown], 0.0);
}

TEST(IdentityFaults, HoldsWithScrubAndRepair) {
  LayoutSpec layout;
  layout.num_replicas = 2;
  Rig rig(PaperJukebox(), layout);
  GreedyScheduler scheduler(&rig.jukebox, &rig.catalog,
                            TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  SimulationConfig config = ShortSim(QueuingModel::kOpen);
  // Light load: scrub only runs on an idle drive, and the default sweep
  // load saturates it.
  config.workload.mean_interarrival_seconds = 600;
  config.faults.permanent_media_error_prob = 0.02;
  config.repair.enable_repair = true;
  config.repair.scrub_interval_seconds = 20'000;
  Simulator sim(&rig.jukebox, &rig.catalog, &scheduler, config);
  const SimulationResult result = sim.Run();
  ExpectIdentity(result, /*num_drives=*/1);
  // Scrub/repair work is charged to the background state.
  EXPECT_GT(result.time_in_state[0][obs::DriveActivity::kBackground], 0.0);
}

TEST(IdentityMultiDrive, HoldsPerDriveFaultFree) {
  const SimulationResult result =
      RunExperiment(DriveExperiment(3, ShortSim(QueuingModel::kClosed), {},
                                    "dynamic-max-bandwidth", PaperJukebox()))
          .sim;
  EXPECT_GT(result.completed_requests, 0);
  ExpectIdentity(result, /*num_drives=*/3);
  for (const obs::DriveTimeInState& tis : result.time_in_state) {
    EXPECT_GT(tis[obs::DriveActivity::kReading], 0.0);
  }
}

TEST(IdentityMultiDrive, HoldsPerDriveUnderFaults) {
  LayoutSpec layout;
  layout.num_replicas = 2;
  SimulationConfig config = ShortSim(QueuingModel::kClosed);
  config.faults.transient_read_error_prob = 0.05;
  config.faults.permanent_media_error_prob = 0.01;
  config.faults.drive_mtbf_seconds = 30'000;
  config.faults.drive_mttr_seconds = 2'000;
  config.faults.robot_fault_prob = 0.02;
  const SimulationResult result =
      RunExperiment(DriveExperiment(2, config, layout, "dynamic-max-bandwidth",
                                    PaperJukebox()))
          .sim;
  ExpectIdentity(result, /*num_drives=*/2);
  double down = 0;
  for (const obs::DriveTimeInState& tis : result.time_in_state) {
    down += tis[obs::DriveActivity::kDown];
  }
  EXPECT_GT(down, 0.0);
}

TEST(DriveUtilization, MatchesTimeInStateDerivation) {
  Rig rig(PaperJukebox(), LayoutSpec{});
  GreedyScheduler scheduler(&rig.jukebox, &rig.catalog,
                            TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  Simulator sim(&rig.jukebox, &rig.catalog, &scheduler,
                ShortSim(QueuingModel::kClosed));
  const SimulationResult result = sim.Run();
  ASSERT_EQ(result.time_in_state.size(), 1u);
  const double busy = result.time_in_state[0].BusySeconds();
  EXPECT_NEAR(result.drive_utilization, busy / result.measured_seconds,
              1e-12);
  // Whole-window busy fraction can only exceed the transfer-only one.
  EXPECT_GE(result.drive_utilization, result.transfer_utilization);
}

}  // namespace
}  // namespace tapejuke
