// Tests for the closed-form round-robin performance model.

#include "core/analytic.h"

#include <gtest/gtest.h>

#include "core/experiment.h"

namespace tapejuke {
namespace {

AnalyticInputs BaseInputs() {
  AnalyticInputs inputs;
  inputs.jukebox.num_tapes = 10;
  inputs.jukebox.block_size_mb = 16;
  inputs.layout.hot_fraction = 0.10;
  inputs.hot_request_fraction = 0.40;
  inputs.queue_length = 60;
  return inputs;
}

TEST(AnalyticInputs, Validation) {
  AnalyticInputs inputs = BaseInputs();
  EXPECT_TRUE(inputs.Validate().ok());
  inputs.layout.num_replicas = 1;
  EXPECT_FALSE(inputs.Validate().ok());
  inputs = BaseInputs();
  inputs.queue_length = 0;
  EXPECT_FALSE(inputs.Validate().ok());
  inputs = BaseInputs();
  inputs.hot_request_fraction = 1.5;
  EXPECT_FALSE(inputs.Validate().ok());
  // A bad layout is refused here, not when the prediction builds it.
  inputs = BaseInputs();
  inputs.layout.hot_fraction = 2.0;
  EXPECT_EQ(inputs.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(PredictRoundRobin(inputs).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ExpectedSweepSpan, GrowsWithBatchTowardCapacity) {
  const AnalyticInputs inputs = BaseInputs();
  const double span1 = ExpectedSweepSpanMb(inputs, 0, 1);
  const double span8 = ExpectedSweepSpanMb(inputs, 0, 8);
  const double span64 = ExpectedSweepSpanMb(inputs, 0, 64);
  EXPECT_LT(span1, span8);
  EXPECT_LT(span8, span64);
  EXPECT_LE(span64, 7168.0);
  // One draw: the expected block-end position; far from the tape end.
  EXPECT_LT(span1, 6000.0);
  // Many draws: the span approaches the full tape.
  EXPECT_GT(span64, 6800.0);
}

TEST(ExpectedSweepSpan, FrontLoadedSkewShortensTheSpan) {
  // Hot data at the beginning with high RH pulls the expected span down
  // relative to hot data at the end.
  AnalyticInputs front = BaseInputs();
  front.hot_request_fraction = 0.8;
  front.layout.start_position = 0.0;
  AnalyticInputs back = front;
  back.layout.start_position = 1.0;
  EXPECT_LT(ExpectedSweepSpanMb(front, 0, 4),
            ExpectedSweepSpanMb(back, 0, 4));
}

TEST(PredictRoundRobin, MatchesSimulationWithinTolerance) {
  for (const int64_t queue : {20L, 60L, 140L}) {
    AnalyticInputs inputs = BaseInputs();
    inputs.queue_length = queue;
    const AnalyticPrediction model = PredictRoundRobin(inputs).value();

    ExperimentConfig config;
    config.algorithm = AlgorithmSpec::Parse("static-round-robin").value();
    config.sim.duration_seconds = 800'000;
    config.sim.warmup_seconds = 80'000;
    config.sim.workload.queue_length = queue;
    config.sim.workload.seed = 5;
    const ExperimentResult sim = ExperimentRunner::Run(config).value();

    EXPECT_NEAR(model.throughput_req_per_min / sim.sim.requests_per_minute,
                1.0, 0.12)
        << "queue " << queue;
    EXPECT_NEAR(model.mean_delay_minutes / sim.sim.mean_delay_minutes, 1.0,
                0.12)
        << "queue " << queue;
  }
}

TEST(PredictRoundRobin, MoreLoadMoreThroughputAndDelay) {
  AnalyticInputs inputs = BaseInputs();
  inputs.queue_length = 20;
  const AnalyticPrediction light = PredictRoundRobin(inputs).value();
  inputs.queue_length = 140;
  const AnalyticPrediction heavy = PredictRoundRobin(inputs).value();
  EXPECT_GT(heavy.throughput_req_per_min, light.throughput_req_per_min);
  EXPECT_GT(heavy.mean_delay_minutes, light.mean_delay_minutes);
  EXPECT_GT(heavy.mean_batch_per_visit, light.mean_batch_per_visit);
}

TEST(PredictRoundRobin, LittleLawHolds) {
  const AnalyticInputs inputs = BaseInputs();
  const AnalyticPrediction model = PredictRoundRobin(inputs).value();
  // Q = X * R by construction.
  EXPECT_NEAR(model.throughput_req_per_min * model.mean_delay_minutes,
              static_cast<double>(inputs.queue_length), 1e-6);
}

TEST(PredictRoundRobin, UniformBatchApproximation) {
  // For the uniform horizontal case the fixed point lands near
  // b = 2Q / (T + 1).
  const AnalyticInputs inputs = BaseInputs();
  const AnalyticPrediction model = PredictRoundRobin(inputs).value();
  EXPECT_NEAR(model.mean_batch_per_visit, 2.0 * 60 / 11.0, 1.5);
}

TEST(PredictRoundRobin, FasterDriveFasterPrediction) {
  AnalyticInputs slow = BaseInputs();
  AnalyticInputs fast = BaseInputs();
  fast.jukebox.timing = TimingParams::FastDrive();
  const double slow_thr =
      PredictRoundRobin(slow).value().throughput_req_per_min;
  const double fast_thr =
      PredictRoundRobin(fast).value().throughput_req_per_min;
  EXPECT_GT(fast_thr, 2.0 * slow_thr);
}

}  // namespace
}  // namespace tapejuke
