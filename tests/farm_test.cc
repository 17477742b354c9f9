// Tests for the jukebox-farm simulator.

#include "core/farm.h"

#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "core/results_io.h"

namespace tapejuke {
namespace {

FarmConfig BaseFarm(int32_t boxes, int64_t total_queue) {
  FarmConfig config;
  config.num_jukeboxes = boxes;
  config.per_jukebox.algorithm =
      AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  config.per_jukebox.sim.duration_seconds = 400'000;
  config.per_jukebox.sim.warmup_seconds = 40'000;
  config.per_jukebox.sim.workload.queue_length = total_queue;
  config.per_jukebox.sim.workload.seed = 77;
  return config;
}

std::string FarmJson(const FarmResult& result) {
  std::ostringstream out;
  JsonWriter w(&out);
  WriteJson(&w, result);
  return out.str();
}

TEST(FarmConfig, Validation) {
  FarmConfig config = BaseFarm(2, 60);
  EXPECT_TRUE(config.Validate().ok());
  config.num_jukeboxes = 0;
  EXPECT_FALSE(config.Validate().ok());
  config.num_jukeboxes = 2;
  config.drives_per_jukebox = 0;
  EXPECT_FALSE(config.Validate().ok());
  // Closed farms need at least one process per box.
  FarmConfig sparse = BaseFarm(8, 4);
  EXPECT_FALSE(sparse.Validate().ok());
}

// A box cannot run more drives than it has tapes; the farm reports it as
// an invalid config instead of aborting in Jukebox::SetNumDrives.
TEST(FarmConfig, RejectsMoreDrivesThanTapes) {
  FarmConfig config = BaseFarm(2, 60);
  config.per_jukebox.jukebox.num_tapes = 4;
  config.drives_per_jukebox = 4;
  EXPECT_TRUE(config.Validate().ok());
  config.drives_per_jukebox = 5;
  const Status status = config.Validate();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("more drives than tapes"),
            std::string::npos);
}

// Multi-drive boxes run FIFO like any other algorithm.
TEST(FarmConfig, MultiDriveRunsFifo) {
  FarmConfig config = BaseFarm(2, 12);
  config.per_jukebox.algorithm = AlgorithmSpec::Parse("fifo").value();
  config.drives_per_jukebox = 2;
  ASSERT_TRUE(config.Validate().ok());
  const SimulationResult result = FarmSimulator(config).Run().aggregate;
  EXPECT_GT(result.completed_requests, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.outstanding_at_end,
            result.issued_requests);
}

// ValidateDrives is the rule run_experiment --drives applies too: drive
// counts only, reported as InvalidArgument; every algorithm and scrub/
// repair run at any valid count.
TEST(ValidateDrives, CountsOnly) {
  ExperimentConfig config;
  config.jukebox.num_tapes = 10;
  EXPECT_TRUE(ValidateDrives(config, 1).ok());
  EXPECT_TRUE(ValidateDrives(config, 10).ok());
  EXPECT_EQ(ValidateDrives(config, 0).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateDrives(config, 11).code(), StatusCode::kInvalidArgument);
  for (const AlgorithmSpec& spec : AlgorithmSpec::AllPaperAlgorithms()) {
    config.algorithm = spec;
    EXPECT_TRUE(ValidateDrives(config, 2).ok()) << spec.Name();
  }
  config.sim.faults.permanent_media_error_prob = 0.01;
  config.sim.repair.enable_repair = true;
  EXPECT_TRUE(ValidateDrives(config, 2).ok());
}

TEST(Farm, SingleBoxMatchesPlainSimulator) {
  FarmConfig config = BaseFarm(1, 60);
  const FarmResult farm = FarmSimulator(config).Run();
  const ExperimentResult plain =
      ExperimentRunner::Run(config.per_jukebox).value();
  // One box, same config but the box runs under its derived per-box seed;
  // expect statistical agreement.
  EXPECT_NEAR(farm.aggregate.requests_per_minute /
                  plain.sim.requests_per_minute,
              1.0, 0.05);
}

TEST(Farm, ThroughputScalesWithBoxes) {
  // Fixed per-box load: total population scales with the farm.
  const FarmResult one = FarmSimulator(BaseFarm(1, 60)).Run();
  const FarmResult three = FarmSimulator(BaseFarm(3, 180)).Run();
  EXPECT_NEAR(three.aggregate.requests_per_minute /
                  one.aggregate.requests_per_minute,
              3.0, 0.25);
}

TEST(Farm, PopulationSplitsEvenly) {
  const FarmResult result = FarmSimulator(BaseFarm(4, 120)).Run();
  ASSERT_EQ(result.mean_outstanding_per_jukebox.size(), 4u);
  const double total = std::accumulate(
      result.mean_outstanding_per_jukebox.begin(),
      result.mean_outstanding_per_jukebox.end(), 0.0);
  EXPECT_NEAR(total, 120.0, 1.0);
  for (const double outstanding : result.mean_outstanding_per_jukebox) {
    EXPECT_NEAR(outstanding, 30.0, 4.0);
  }
  // Work is shared: every box completed a fair share.
  for (const int64_t completions : result.completions_per_jukebox) {
    EXPECT_GT(completions,
              result.aggregate.completed_requests / 8);
  }
}

TEST(Farm, FixedSplitApproximationIsClose) {
  // §4.8 assumes a farm of n boxes at total population Q behaves like one
  // box at Q/n. Compare a 3-box farm (population 180) against a single box
  // at queue 60.
  const FarmResult farm = FarmSimulator(BaseFarm(3, 180)).Run();
  FarmConfig single = BaseFarm(1, 60);
  const FarmResult approx = FarmSimulator(single).Run();
  const double per_box_thr = farm.aggregate.requests_per_minute / 3.0;
  EXPECT_NEAR(per_box_thr / approx.aggregate.requests_per_minute, 1.0,
              0.10);
}

TEST(Farm, OpenModelRoutesPoissonStream) {
  FarmConfig config = BaseFarm(2, 60);
  config.per_jukebox.sim.workload.model = QueuingModel::kOpen;
  config.per_jukebox.sim.workload.mean_interarrival_seconds = 40;
  const FarmResult result = FarmSimulator(config).Run();
  // Two boxes absorb a 1.5/min farm-wide stream.
  EXPECT_NEAR(result.aggregate.requests_per_minute, 1.5, 0.3);
}

TEST(Farm, Deterministic) {
  const FarmResult a = FarmSimulator(BaseFarm(2, 80)).Run();
  const FarmResult b = FarmSimulator(BaseFarm(2, 80)).Run();
  EXPECT_EQ(a.aggregate.completed_requests, b.aggregate.completed_requests);
  EXPECT_EQ(a.completions_per_jukebox, b.completions_per_jukebox);
}

TEST(Farm, BitIdenticalAcrossThreadCountsClosed) {
  FarmConfig serial = BaseFarm(5, 150);
  serial.threads = 1;
  FarmConfig parallel = BaseFarm(5, 150);
  parallel.threads = 4;
  const FarmResult a = FarmSimulator(serial).Run();
  const FarmResult b = FarmSimulator(parallel).Run();
  EXPECT_EQ(FarmJson(a), FarmJson(b));
}

TEST(Farm, BitIdenticalAcrossThreadCountsOpen) {
  FarmConfig serial = BaseFarm(4, 60);
  serial.per_jukebox.sim.workload.model = QueuingModel::kOpen;
  serial.per_jukebox.sim.workload.mean_interarrival_seconds = 50;
  FarmConfig parallel = serial;
  serial.threads = 1;
  parallel.threads = 8;
  const FarmResult a = FarmSimulator(serial).Run();
  const FarmResult b = FarmSimulator(parallel).Run();
  EXPECT_EQ(FarmJson(a), FarmJson(b));
}

TEST(Farm, MultiDriveBoxesRunAndOutperformSingleDrive) {
  FarmConfig single = BaseFarm(2, 120);
  FarmConfig dual = BaseFarm(2, 120);
  dual.drives_per_jukebox = 2;
  const FarmResult one = FarmSimulator(single).Run();
  const FarmResult two = FarmSimulator(dual).Run();
  // A second drive per box adds real (sub-linear) throughput.
  EXPECT_GT(two.aggregate.requests_per_minute,
            1.2 * one.aggregate.requests_per_minute);
  // And the multi-drive-backed farm stays thread-invariant.
  FarmConfig dual_parallel = dual;
  dual.threads = 1;
  dual_parallel.threads = 4;
  EXPECT_EQ(FarmJson(FarmSimulator(dual).Run()),
            FarmJson(FarmSimulator(dual_parallel).Run()));
}

// Multi-drive boxes run the envelope scheduler with scrub/repair under
// faults, deterministically at any thread count.
TEST(Farm, MultiDriveEnvelopeBoxesWithRepairRun) {
  FarmConfig serial = BaseFarm(2, 40);
  serial.drives_per_jukebox = 2;
  serial.per_jukebox.algorithm =
      AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  serial.per_jukebox.layout.num_replicas = 2;
  serial.per_jukebox.layout.start_position = 1.0;
  serial.per_jukebox.sim.duration_seconds = 200'000;
  serial.per_jukebox.sim.warmup_seconds = 20'000;
  serial.per_jukebox.sim.faults.permanent_media_error_prob = 0.005;
  serial.per_jukebox.sim.repair.enable_repair = true;
  serial.per_jukebox.sim.repair.scrub_interval_seconds = 20'000;
  serial.threads = 1;
  FarmConfig parallel = serial;
  parallel.threads = 2;
  const FarmResult a = FarmSimulator(serial).Run();
  const SimulationResult& result = a.aggregate;
  EXPECT_GT(result.completed_requests, 0);
  EXPECT_TRUE(result.repair_enabled);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  EXPECT_EQ(FarmJson(a), FarmJson(FarmSimulator(parallel).Run()));
}

TEST(Farm, FaultInjectionAggregatesAcrossBoxes) {
  FarmConfig config = BaseFarm(3, 90);
  config.per_jukebox.layout.num_replicas = 2;
  config.per_jukebox.sim.faults.permanent_media_error_prob = 0.01;
  config.per_jukebox.sim.faults.transient_read_error_prob = 0.02;
  const FarmResult result = FarmSimulator(config).Run();
  EXPECT_TRUE(result.aggregate.fault_injection);
  EXPECT_GT(result.aggregate.faults.permanent_media_errors, 0);
  EXPECT_GT(result.aggregate.faults.transient_read_errors, 0);
  EXPECT_LT(result.aggregate.live_replica_fraction, 1.0);
  // Conservation holds farm-wide.
  EXPECT_EQ(result.aggregate.completed_total +
                result.aggregate.failed_requests +
                result.aggregate.outstanding_at_end,
            result.aggregate.issued_requests);
  // Faulty farms are thread-invariant too.
  FarmConfig parallel = config;
  config.threads = 1;
  parallel.threads = 4;
  EXPECT_EQ(FarmJson(FarmSimulator(config).Run()),
            FarmJson(FarmSimulator(parallel).Run()));
}

TEST(Farm, PerBoxOutstandingConsistentWithAggregate) {
  // Regression: per-box outstanding areas used to integrate from t = 0 and
  // divide by the full clock while the aggregate clips at warm-up and
  // divides by the measured window, so the box numbers disagreed with the
  // aggregate whenever warmup_seconds > 0. Both now use the same
  // accounting, and the per-box means sum to the aggregate mean exactly.
  // The open model exercises this: outstanding varies over time, so the
  // pre-warm-up area actually differs from the steady-state area.
  FarmConfig config = BaseFarm(3, 60);
  config.per_jukebox.sim.workload.model = QueuingModel::kOpen;
  config.per_jukebox.sim.workload.mean_interarrival_seconds = 45;
  const FarmResult result = FarmSimulator(config).Run();
  ASSERT_GT(result.aggregate.mean_outstanding, 0.0);
  const double box_sum = std::accumulate(
      result.mean_outstanding_per_jukebox.begin(),
      result.mean_outstanding_per_jukebox.end(), 0.0);
  EXPECT_DOUBLE_EQ(box_sum, result.aggregate.mean_outstanding);
}

}  // namespace
}  // namespace tapejuke
