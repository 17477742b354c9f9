// Tests for trace capture/replay.

#include "sim/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "layout/placement.h"
#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

struct Rig {
  Rig()
      : jukebox(PaperJukebox()),
        catalog(LayoutBuilder::Build(&jukebox, LayoutSpec{}).value()),
        scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth, true) {}
  Jukebox jukebox;
  Catalog catalog;
  GreedyScheduler scheduler;
};

class TraceTest : public ::testing::Test {
 protected:
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_ =
      ::testing::TempDir() + "/tapejuke_trace_test.csv";
};

TEST_F(TraceTest, SaveLoadRoundTrip) {
  const std::vector<TraceRecord> records = {
      {0.5, 10}, {1.25, 3}, {99.0, 4479}};
  ASSERT_TRUE(SaveTrace(path_, records).ok());
  const auto loaded = LoadTrace(path_);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(*loaded, records);
}

TEST_F(TraceTest, LoadRejectsMalformedLines) {
  {
    std::ofstream out(path_);
    out << "arrival_seconds,block\n1.0,5\nnot-a-number,3\n";
  }
  EXPECT_FALSE(LoadTrace(path_).ok());
  {
    std::ofstream out(path_);
    out << "1.0,5\n0.5,3\n";  // out of order
  }
  EXPECT_FALSE(LoadTrace(path_).ok());
  {
    std::ofstream out(path_);
    out << "1.0\n";  // missing block
  }
  EXPECT_FALSE(LoadTrace(path_).ok());
}

TEST_F(TraceTest, LoadMissingFileIsNotFound) {
  EXPECT_EQ(LoadTrace("/nonexistent/trace.csv").status().code(),
            StatusCode::kNotFound);
}

TEST(TraceSynthesis, MatchesWorkloadParameters) {
  Jukebox jukebox(PaperJukebox());
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  WorkloadConfig config;
  config.mean_interarrival_seconds = 60;
  config.hot_request_fraction = 0.4;
  config.seed = 61;
  const auto trace = SynthesizeTrace(catalog, config, 600'000);
  // ~10k arrivals at one per minute over 600k seconds.
  EXPECT_NEAR(static_cast<double>(trace.size()), 10'000, 500);
  int hot = 0;
  for (const TraceRecord& record : trace) {
    ASSERT_GE(record.block, 0);
    ASSERT_LT(record.block, catalog.num_blocks());
    if (catalog.IsHot(record.block)) ++hot;
  }
  EXPECT_NEAR(static_cast<double>(hot) / trace.size(), 0.4, 0.02);
}

TEST(TraceReplay, SameTraceSameResults) {
  Jukebox probe(PaperJukebox());
  const Catalog catalog_probe =
      LayoutBuilder::Build(&probe, LayoutSpec{}).value();
  WorkloadConfig config;
  config.mean_interarrival_seconds = 90;
  config.seed = 71;
  const auto trace = SynthesizeTrace(catalog_probe, config, 300'000);

  auto run = [&]() {
    Rig rig;
    SimulationConfig sim_config;
    sim_config.duration_seconds = 300'000;
    sim_config.warmup_seconds = 30'000;
    Simulator sim(&rig.jukebox, &rig.catalog, &rig.scheduler, sim_config,
                  TraceToRequests(trace));
    return sim.Run();
  };
  const SimulationResult a = run();
  const SimulationResult b = run();
  EXPECT_GT(a.completed_requests, 1000);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_DOUBLE_EQ(a.mean_delay_seconds, b.mean_delay_seconds);
}

TEST(TraceReplay, EquivalentToGeneratorDrivenOpenRun) {
  // Replaying a synthesized trace reproduces the generator-driven open-
  // queuing run exactly (same arrival instants, same blocks).
  WorkloadConfig config;
  config.model = QueuingModel::kOpen;
  config.mean_interarrival_seconds = 90;
  config.seed = 81;

  Rig generator_rig;
  SimulationConfig sim_config;
  sim_config.duration_seconds = 300'000;
  sim_config.warmup_seconds = 30'000;
  sim_config.workload = config;
  Simulator generated(&generator_rig.jukebox, &generator_rig.catalog,
                      &generator_rig.scheduler, sim_config);
  const SimulationResult a = generated.Run();

  Jukebox probe(PaperJukebox());
  const Catalog catalog_probe =
      LayoutBuilder::Build(&probe, LayoutSpec{}).value();
  const auto trace = SynthesizeTrace(catalog_probe, config, 300'000);
  Rig replay_rig;
  Simulator replayed(&replay_rig.jukebox, &replay_rig.catalog,
                     &replay_rig.scheduler, sim_config,
                     TraceToRequests(trace));
  const SimulationResult b = replayed.Run();

  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_DOUBLE_EQ(a.throughput_mb_per_s, b.throughput_mb_per_s);
  EXPECT_DOUBLE_EQ(a.mean_delay_seconds, b.mean_delay_seconds);
}

TEST(TraceReplay, TwoDriveReplayConservesArrivals) {
  Jukebox probe(PaperJukebox());
  const Catalog catalog_probe =
      LayoutBuilder::Build(&probe, LayoutSpec{}).value();
  WorkloadConfig config;
  config.mean_interarrival_seconds = 45;
  config.seed = 91;
  const auto trace = SynthesizeTrace(catalog_probe, config, 300'000);

  DriveRig rig(2, LayoutSpec{}, "dynamic-max-bandwidth", PaperJukebox());
  SimulationConfig sim_config;
  sim_config.duration_seconds = 300'000;
  sim_config.warmup_seconds = 30'000;
  Simulator sim(&rig.jukebox, &rig.catalog, rig.scheduler.get(), sim_config,
                TraceToRequests(trace));
  const SimulationResult result = sim.Run();
  // Every trace arrival up to the end of the run is issued exactly once,
  // and each issued request is settled or still outstanding.
  int64_t arrived = 0;
  for (const TraceRecord& record : trace) {
    if (record.arrival_seconds <= result.simulated_seconds) ++arrived;
  }
  EXPECT_GT(arrived, 5000);
  EXPECT_EQ(result.issued_requests, arrived);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  ASSERT_EQ(result.time_in_state.size(), 2u);
}

TEST(TraceReplayDeathTest, RejectsUnknownBlocks) {
  Rig rig;
  SimulationConfig sim_config;
  std::vector<Request> trace = {Request{-1, 999'999, 1.0}};
  EXPECT_DEATH(Simulator(&rig.jukebox, &rig.catalog, &rig.scheduler,
                         sim_config, std::move(trace)),
               "unknown block");
}

TEST(TraceReplayDeathTest, RejectsUnorderedTrace) {
  Rig rig;
  SimulationConfig sim_config;
  std::vector<Request> trace = {Request{-1, 1, 5.0}, Request{-1, 2, 1.0}};
  EXPECT_DEATH(Simulator(&rig.jukebox, &rig.catalog, &rig.scheduler,
                         sim_config, std::move(trace)),
               "time-ordered");
}

}  // namespace
}  // namespace tapejuke
