// Tests for the core experiment API: algorithm parsing, the factory, the
// runner, parametric curves, and the cost-performance analysis.

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "core/cost_performance.h"
#include "core/farm.h"

namespace tapejuke {
namespace {

TEST(AlgorithmSpec, ParseRoundTrips) {
  const struct {
    const char* input;
    AlgorithmKind kind;
    TapePolicy policy;
    const char* name;
  } cases[] = {
      {"fifo", AlgorithmKind::kFifo, TapePolicy::kRoundRobin, "fifo"},
      {"static-round-robin", AlgorithmKind::kStatic,
       TapePolicy::kRoundRobin, "static round-robin"},
      {"static-oldest-max-requests", AlgorithmKind::kStatic,
       TapePolicy::kOldestMaxRequests, "static oldest-max-requests"},
      {"dynamic-max-bandwidth", AlgorithmKind::kDynamic,
       TapePolicy::kMaxBandwidth, "dynamic max-bandwidth"},
      {"envelope-max-requests", AlgorithmKind::kEnvelope,
       TapePolicy::kMaxRequests, "max-requests envelope"},
      {"envelope-oldest-max-bandwidth", AlgorithmKind::kEnvelope,
       TapePolicy::kOldestMaxBandwidth, "oldest-max-bandwidth envelope"},
  };
  for (const auto& c : cases) {
    const StatusOr<AlgorithmSpec> spec = AlgorithmSpec::Parse(c.input);
    ASSERT_TRUE(spec.ok()) << c.input;
    EXPECT_EQ(spec->kind, c.kind) << c.input;
    if (spec->kind != AlgorithmKind::kFifo) {
      EXPECT_EQ(spec->policy, c.policy) << c.input;
    }
    EXPECT_EQ(spec->Name(), c.name);
  }
}

TEST(AlgorithmSpec, ParseRejectsUnknown) {
  EXPECT_FALSE(AlgorithmSpec::Parse("lifo").ok());
  EXPECT_FALSE(AlgorithmSpec::Parse("dynamic-bogus").ok());
  EXPECT_FALSE(AlgorithmSpec::Parse("bogus-max-requests").ok());
  EXPECT_FALSE(AlgorithmSpec::Parse("").ok());
}

TEST(AlgorithmSpec, AllPaperAlgorithmsCount) {
  // FIFO + 5 static + 5 dynamic + 3 envelope = 14.
  const auto all = AlgorithmSpec::AllPaperAlgorithms();
  EXPECT_EQ(all.size(), 14u);
}

TEST(CreateScheduler, ProducesMatchingNames) {
  JukeboxConfig jb;
  jb.num_tapes = 2;
  Jukebox jukebox(jb);
  LayoutSpec layout;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();
  for (const AlgorithmSpec& spec : AlgorithmSpec::AllPaperAlgorithms()) {
    if (spec.kind == AlgorithmKind::kFifo) continue;
    const auto scheduler = CreateScheduler(spec, &jukebox, &catalog);
    EXPECT_EQ(scheduler->name(), spec.Name());
  }
}

ExperimentConfig QuickConfig() {
  ExperimentConfig config;
  config.sim.duration_seconds = 120'000;
  config.sim.warmup_seconds = 12'000;
  config.sim.workload.queue_length = 30;
  config.sim.workload.seed = 23;
  config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  return config;
}

TEST(ExperimentRunner, RunsEndToEnd) {
  const StatusOr<ExperimentResult> result =
      ExperimentRunner::Run(QuickConfig());
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->sim.completed_requests, 50);
  EXPECT_EQ(result->layout.logical_blocks, 4480);
  EXPECT_EQ(result->algorithm_name, "dynamic max-bandwidth");
}

TEST(ExperimentRunner, InvalidConfigFails) {
  ExperimentConfig config = QuickConfig();
  config.layout.hot_fraction = 2.0;
  EXPECT_FALSE(ExperimentRunner::Run(config).ok());
  config = QuickConfig();
  config.sim.duration_seconds = -1;
  EXPECT_FALSE(ExperimentRunner::Run(config).ok());
}

// A slot index must fit the scheduler's 32-bit candidate slot, so both
// validators reject more than INT32_MAX slots per tape. Only the validators
// run here: a jukebox of that size would allocate 8 bytes per slot.
TEST(ExperimentRunner, ValidateBoundsSlotsPerTape) {
  ExperimentConfig config = QuickConfig();
  config.jukebox.block_size_mb = 1;
  config.jukebox.timing.tape_capacity_mb = int64_t{1} << 33;
  // Stop here if the bound is missing, before a validator might build it.
  ASSERT_EQ(config.jukebox.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  config.jukebox.timing.tape_capacity_mb = std::numeric_limits<int32_t>::max();
  EXPECT_TRUE(config.jukebox.Validate().ok());
  EXPECT_TRUE(config.Validate().ok());
  config.jukebox.timing.tape_capacity_mb += 1;
  EXPECT_EQ(config.Validate().code(), StatusCode::kInvalidArgument);
  // The bound is on slots, not megabytes: bigger blocks bring it back.
  config.jukebox.block_size_mb = 2;
  EXPECT_TRUE(config.Validate().ok());
}

// The batching knobs have no "off" encoding below their legacy values:
// a negative batch or an epoch below one is a config error, reported by
// the runner and by the farm (which validates its per-box config).
TEST(ExperimentRunner, RejectsInvalidSchedulerOptions) {
  ExperimentConfig config = QuickConfig();
  config.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  EXPECT_TRUE(config.Validate().ok());

  config.algorithm.options.arrival_batch = -1;
  EXPECT_EQ(ExperimentRunner::Run(config).status().code(),
            StatusCode::kInvalidArgument);
  FarmConfig farm;
  farm.num_jukeboxes = 2;
  farm.per_jukebox = config;
  EXPECT_EQ(farm.Validate().code(), StatusCode::kInvalidArgument);

  config.algorithm.options.arrival_batch = 0;
  config.algorithm.options.reschedule_epoch = 0;
  EXPECT_EQ(ExperimentRunner::Run(config).status().code(),
            StatusCode::kInvalidArgument);
  farm.per_jukebox = config;
  EXPECT_EQ(farm.Validate().code(), StatusCode::kInvalidArgument);

  config.algorithm.options.reschedule_epoch = 1;
  farm.per_jukebox = config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_TRUE(farm.Validate().ok());
}

TEST(ExperimentRunner, IsDeterministic) {
  const ExperimentResult a = ExperimentRunner::Run(QuickConfig()).value();
  const ExperimentResult b = ExperimentRunner::Run(QuickConfig()).value();
  EXPECT_DOUBLE_EQ(a.sim.throughput_mb_per_s, b.sim.throughput_mb_per_s);
  EXPECT_DOUBLE_EQ(a.sim.mean_delay_seconds, b.sim.mean_delay_seconds);
}

TEST(ThroughputDelayCurve, MoreLoadMoreThroughputAndDelay) {
  const auto curve =
      ThroughputDelayCurve(QuickConfig(), {20, 80}).value();
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_GT(curve[1].throughput_req_per_min,
            curve[0].throughput_req_per_min);
  EXPECT_GT(curve[1].mean_delay_minutes, curve[0].mean_delay_minutes);
}

TEST(OpenThroughputDelayCurve, ThroughputTracksArrivalRate) {
  const auto curve =
      OpenThroughputDelayCurve(QuickConfig(), {600.0, 300.0}).value();
  ASSERT_EQ(curve.size(), 2u);
  // Light load: throughput ~ 60/interarrival requests per minute.
  EXPECT_NEAR(curve[0].throughput_req_per_min, 0.1, 0.04);
  EXPECT_NEAR(curve[1].throughput_req_per_min, 0.2, 0.05);
}

TEST(DefaultSimSeconds, EnvOverride) {
  unsetenv("TAPEJUKE_SIM_SECONDS");
  EXPECT_DOUBLE_EQ(DefaultSimSeconds(), 2'000'000.0);
  setenv("TAPEJUKE_SIM_SECONDS", "500000", 1);
  EXPECT_DOUBLE_EQ(DefaultSimSeconds(), 500'000.0);
  setenv("TAPEJUKE_SIM_SECONDS", "garbage", 1);
  EXPECT_DOUBLE_EQ(DefaultSimSeconds(), 2'000'000.0);
  unsetenv("TAPEJUKE_SIM_SECONDS");
}

TEST(CostPerformanceCurve, BaselineRatioIsOne) {
  ExperimentConfig config = QuickConfig();
  config.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  const auto curve =
      CostPerformanceCurve(config, /*base_queue=*/30, {0, 9}).value();
  ASSERT_EQ(curve.size(), 2u);
  EXPECT_DOUBLE_EQ(curve[0].cost_performance_ratio, 1.0);
  EXPECT_DOUBLE_EQ(curve[0].expansion_factor, 1.0);
  EXPECT_DOUBLE_EQ(curve[1].expansion_factor, 1.9);
  EXPECT_EQ(curve[1].effective_queue, 16);  // round(30 / 1.9)
  EXPECT_GT(curve[1].cost_performance_ratio, 0.5);
  EXPECT_LT(curve[1].cost_performance_ratio, 1.5);
}

}  // namespace
}  // namespace tapejuke
