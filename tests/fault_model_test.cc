// Tests for the fault-injection engine: config validation, draw gating,
// determinism, the retry-escalation chain, and how the model applies and
// counts robot slips and permanent errors.

#include "sim/fault_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "test_util.h"

namespace tapejuke {
namespace {

FaultConfig AllOn() {
  FaultConfig config;
  config.transient_read_error_prob = 0.3;
  config.max_read_retries = 2;
  config.permanent_media_error_prob = 0.05;
  config.whole_tape_fraction = 0.5;
  config.drive_mtbf_seconds = 1000;
  config.drive_mttr_seconds = 50;
  config.robot_fault_prob = 0.1;
  return config;
}

TEST(FaultConfig, DefaultIsDisabledAndValid) {
  const FaultConfig config;
  EXPECT_FALSE(config.enabled());
  EXPECT_TRUE(config.Validate().ok());
}

TEST(FaultConfig, AnySingleRateEnables) {
  FaultConfig transient;
  transient.transient_read_error_prob = 0.01;
  EXPECT_TRUE(transient.enabled());
  FaultConfig permanent;
  permanent.permanent_media_error_prob = 0.01;
  EXPECT_TRUE(permanent.enabled());
  FaultConfig drive;
  drive.drive_mtbf_seconds = 100;
  drive.drive_mttr_seconds = 10;
  EXPECT_TRUE(drive.enabled());
  FaultConfig robot;
  robot.robot_fault_prob = 0.01;
  EXPECT_TRUE(robot.enabled());
}

TEST(FaultConfig, ValidateRejectsBadValues) {
  // Regression for construction-time validation: each invalid field must
  // be caught on its own.
  FaultConfig config = AllOn();
  EXPECT_TRUE(config.Validate().ok());

  config = AllOn();
  config.transient_read_error_prob = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.transient_read_error_prob = 1.0;  // certain failure retries forever
  EXPECT_FALSE(config.Validate().ok());

  config = AllOn();
  config.max_read_retries = -1;
  EXPECT_FALSE(config.Validate().ok());

  config = AllOn();
  config.permanent_media_error_prob = -0.5;
  EXPECT_FALSE(config.Validate().ok());
  config.permanent_media_error_prob = 1.0;
  EXPECT_FALSE(config.Validate().ok());

  config = AllOn();
  config.whole_tape_fraction = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.whole_tape_fraction = 1.1;
  EXPECT_FALSE(config.Validate().ok());
  config.whole_tape_fraction = 1.0;  // every permanent error kills the tape
  EXPECT_TRUE(config.Validate().ok());

  config = AllOn();
  config.drive_mtbf_seconds = -1;
  EXPECT_FALSE(config.Validate().ok());

  config = AllOn();
  config.drive_mttr_seconds = 0;  // MTBF on, zero MTTR: instant repairs
  EXPECT_FALSE(config.Validate().ok());
  config.drive_mttr_seconds = -5;
  EXPECT_FALSE(config.Validate().ok());

  config = AllOn();
  config.robot_fault_prob = 1.0;  // the handoff would slip forever
  EXPECT_FALSE(config.Validate().ok());
}

TEST(FaultModel, SameSeedSameDrawSequence) {
  FaultModel a(AllOn(), /*workload_seed=*/7);
  FaultModel b(AllOn(), /*workload_seed=*/7);
  for (int i = 0; i < 200; ++i) {
    const ReadOutcome oa = a.NextReadOutcome();
    const ReadOutcome ob = b.NextReadOutcome();
    EXPECT_EQ(oa.retries, ob.retries);
    EXPECT_EQ(oa.permanent_error, ob.permanent_error);
    EXPECT_EQ(oa.whole_tape, ob.whole_tape);
    EXPECT_EQ(oa.escalated, ob.escalated);
    EXPECT_EQ(a.NextRobotFaults(), b.NextRobotFaults());
    EXPECT_DOUBLE_EQ(a.NextFailureGap(), b.NextFailureGap());
    EXPECT_DOUBLE_EQ(a.NextRepairTime(), b.NextRepairTime());
  }
}

TEST(FaultModel, StreamDerivesFromWorkloadSeed) {
  // The stream is derived from (and varies with) the workload seed.
  FaultModel a(AllOn(), 1);
  FaultModel b(AllOn(), 2);
  bool any_difference = false;
  for (int i = 0; i < 200 && !any_difference; ++i) {
    any_difference = a.NextRobotFaults() != b.NextRobotFaults() ||
                     a.NextFailureGap() != b.NextFailureGap();
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultModel, ZeroRatesDrawNothing) {
  // With a class disabled its draw must return the null outcome without
  // consuming randomness, so enabling one class never perturbs another.
  FaultConfig only_robot;
  only_robot.robot_fault_prob = 0.2;
  FaultModel a(only_robot, 9);
  FaultModel b(only_robot, 9);
  // a interleaves read-outcome draws (which must consume nothing);
  // b draws robot faults back to back.
  std::vector<int> from_a, from_b;
  for (int i = 0; i < 100; ++i) {
    const ReadOutcome outcome = a.NextReadOutcome();
    EXPECT_EQ(outcome.retries, 0);
    EXPECT_FALSE(outcome.permanent_error);
    from_a.push_back(a.NextRobotFaults());
    from_b.push_back(b.NextRobotFaults());
  }
  EXPECT_EQ(from_a, from_b);
}

TEST(FaultModel, RetryBudgetExhaustionEscalates) {
  // With transient errors certain-adjacent (p close to 1) the budget is
  // exhausted quickly and the outcome escalates to a permanent error.
  FaultConfig config;
  config.transient_read_error_prob = 0.99;
  config.max_read_retries = 2;
  FaultModel model(config, 3);
  bool saw_escalation = false;
  for (int i = 0; i < 100 && !saw_escalation; ++i) {
    const ReadOutcome outcome = model.NextReadOutcome();
    if (outcome.permanent_error) {
      EXPECT_TRUE(outcome.escalated);
      EXPECT_EQ(outcome.retries, config.max_read_retries);
      saw_escalation = true;
    }
  }
  EXPECT_TRUE(saw_escalation);
}

TEST(FaultModel, ZeroRetryBudgetEscalatesImmediately) {
  FaultConfig config;
  config.transient_read_error_prob = 0.99;
  config.max_read_retries = 0;
  FaultModel model(config, 4);
  bool saw_escalation = false;
  for (int i = 0; i < 50 && !saw_escalation; ++i) {
    const ReadOutcome outcome = model.NextReadOutcome();
    EXPECT_EQ(outcome.retries, 0);
    if (outcome.permanent_error) {
      EXPECT_TRUE(outcome.escalated);
      saw_escalation = true;
    }
  }
  EXPECT_TRUE(saw_escalation);
}

TEST(FaultModel, RetriesNeverExceedBudget) {
  FaultConfig config = AllOn();
  config.max_read_retries = 3;
  FaultModel model(config, 11);
  for (int i = 0; i < 1000; ++i) {
    const ReadOutcome outcome = model.NextReadOutcome();
    EXPECT_LE(outcome.retries, config.max_read_retries);
    EXPECT_GE(outcome.retries, 0);
    if (outcome.whole_tape || outcome.escalated) {
      EXPECT_TRUE(outcome.permanent_error);
    }
  }
}

TEST(FaultModel, StatsSumTheDrawnOutcomes) {
  FaultConfig config = AllOn();
  config.transient_read_error_prob = 0.5;  // escalations are common
  FaultModel model(config, 13);
  int64_t retries = 0;
  int64_t escalated = 0;
  for (int i = 0; i < 5000; ++i) {
    const ReadOutcome outcome = model.NextReadOutcome();
    retries += outcome.retries;
    if (outcome.escalated) ++escalated;
  }
  double downtime = 0;
  for (int i = 0; i < 100; ++i) downtime += model.NextRepairTime();
  const FaultStats& stats = model.stats();
  EXPECT_GT(escalated, 0);
  EXPECT_EQ(stats.read_retries, retries);
  EXPECT_EQ(stats.reads_escalated, escalated);
  EXPECT_EQ(stats.transient_read_errors,
            stats.read_retries + stats.reads_escalated);
  // A permanent error is counted when it is settled, not when drawn.
  EXPECT_EQ(stats.permanent_media_errors, 0);
  EXPECT_EQ(stats.drive_failures, 100);
  EXPECT_EQ(stats.drive_repair_seconds, downtime);
}

TEST(FaultModel, ChargeRobotSlipsChargesAndCountsEachSlip) {
  FaultConfig config;
  config.robot_fault_prob = 0.5;
  FaultModel model(config, 5);
  FaultModel twin(config, 5);  // draws the same slips
  TinyRig rig(2);
  const double robot = rig.model().params().robot_seconds;
  int64_t slips = 0;
  double seconds = 0;
  for (TapeId i = 0; i < 40; ++i) {
    rig.jukebox().SwitchTo(i % 2);
    const int expected = twin.NextRobotFaults();
    const double extra = model.ChargeRobotSlips(&rig.jukebox());
    EXPECT_EQ(extra, expected * robot);
    slips += expected;
    seconds += extra;
  }
  EXPECT_GT(slips, 0);
  EXPECT_EQ(model.stats().robot_faults, slips);
  EXPECT_EQ(model.stats().robot_retry_seconds, seconds);
}

TEST(FaultModel, MaskPermanentErrorMasksAndCounts) {
  // Block 0 on tapes 0 and 1, block 1 only on tape 0, block 2 on tapes 1
  // and 2.
  TinyRig rig(3);
  rig.Place(0, 0, 0);
  rig.Place(0, 1, 0);
  rig.Place(1, 0, 1);
  rig.Place(2, 1, 1);
  rig.Place(2, 2, 0);
  Catalog catalog = rig.BuildCatalog();
  FaultModel model(FaultConfig{}, 1);
  std::vector<BlockId> masked;

  // A region error masks one replica; the block survives on tape 2.
  EXPECT_TRUE(model.MaskPermanentError(&catalog, 2, 1, false, &masked));
  EXPECT_EQ(masked, (std::vector<BlockId>{2}));
  EXPECT_EQ(model.stats().permanent_media_errors, 1);
  EXPECT_EQ(model.stats().replicas_masked, 1);
  EXPECT_EQ(model.stats().blocks_lost, 0);

  // The same region again: the error counts, nothing new is masked.
  masked.clear();
  EXPECT_FALSE(model.MaskPermanentError(&catalog, 2, 1, false, &masked));
  EXPECT_TRUE(masked.empty());
  EXPECT_EQ(model.stats().permanent_media_errors, 2);
  EXPECT_EQ(model.stats().replicas_masked, 1);

  // Tape 0 dies whole: blocks 0 and 1 are masked, and only block 1 had
  // its last copy there.
  EXPECT_TRUE(model.MaskPermanentError(&catalog, 0, 0, true, &masked));
  std::sort(masked.begin(), masked.end());
  EXPECT_EQ(masked, (std::vector<BlockId>{0, 1}));
  const FaultStats& stats = model.stats();
  EXPECT_EQ(stats.permanent_media_errors, 3);
  EXPECT_EQ(stats.dead_tapes, 1);
  EXPECT_EQ(stats.replicas_masked, 3);
  EXPECT_EQ(stats.blocks_lost, 1);
  EXPECT_TRUE(catalog.HasLiveReplica(0));
  EXPECT_FALSE(catalog.HasLiveReplica(1));
}

TEST(FaultStats, AccumulateAndCompare) {
  FaultStats a;
  a.transient_read_errors = 3;
  a.failovers = 1;
  a.drive_repair_seconds = 2.5;
  FaultStats b;
  b.transient_read_errors = 2;
  b.dead_tapes = 1;
  b.drive_repair_seconds = 1.5;
  a += b;
  EXPECT_EQ(a.transient_read_errors, 5);
  EXPECT_EQ(a.dead_tapes, 1);
  EXPECT_EQ(a.failovers, 1);
  EXPECT_DOUBLE_EQ(a.drive_repair_seconds, 4.0);
  EXPECT_FALSE(a == b);
  EXPECT_TRUE(a == a);
}

}  // namespace
}  // namespace tapejuke
