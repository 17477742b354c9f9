// Tests for the parallel sweep runner: seed derivation, thread-count
// invariance, in-order collection, and error propagation.

#include "core/sweep_runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/results_io.h"

namespace tapejuke {
namespace {

ExperimentConfig QuickConfig(const char* algorithm) {
  ExperimentConfig config;
  config.sim.duration_seconds = 60'000;
  config.sim.warmup_seconds = 6'000;
  config.sim.workload.queue_length = 30;
  config.algorithm = AlgorithmSpec::Parse(algorithm).value();
  return config;
}

std::vector<ExperimentConfig> QuickGrid() {
  return {QuickConfig("fifo"), QuickConfig("static-round-robin"),
          QuickConfig("dynamic-max-bandwidth"),
          QuickConfig("envelope-max-bandwidth")};
}

std::string Serialize(const std::vector<ExperimentResult>& results) {
  std::ostringstream os;
  JsonWriter w(&os);
  w.BeginArray();
  for (const ExperimentResult& r : results) WriteJson(&w, r);
  w.EndArray();
  return os.str();
}

TEST(DerivePointSeed, IsDeterministic) {
  EXPECT_EQ(DerivePointSeed(1, 0), DerivePointSeed(1, 0));
  EXPECT_EQ(DerivePointSeed(99, 7), DerivePointSeed(99, 7));
}

TEST(DerivePointSeed, DistinctAcrossIndicesAndSeeds) {
  std::set<uint64_t> seeds;
  for (uint64_t base = 1; base <= 4; ++base) {
    for (uint64_t index = 0; index < 64; ++index) {
      seeds.insert(DerivePointSeed(base, index));
    }
  }
  EXPECT_EQ(seeds.size(), 4u * 64u);
}

TEST(SweepRunner, EffectiveConfigAppliesDerivedSeed) {
  SweepOptions options;
  options.base_seed = 17;
  SweepRunner runner(options);
  const ExperimentConfig point = QuickConfig("fifo");
  EXPECT_EQ(runner.EffectiveConfig(point, 3).sim.workload.seed,
            DerivePointSeed(17, 3));
}

TEST(SweepRunner, IdenticalPointsRunOnTheirOwnDerivedSeeds) {
  // Two copies of one point still run as independent samples: point i
  // runs exactly as a standalone run with seed DerivePointSeed(base, i).
  SweepOptions options;
  options.base_seed = 5;
  options.threads = 2;
  const std::vector<ExperimentConfig> grid(2, QuickConfig("fifo"));
  const auto results = SweepRunner(options).Run(grid);
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 2u);
  EXPECT_NE(Serialize({(*results)[0]}), Serialize({(*results)[1]}));
  for (size_t i = 0; i < grid.size(); ++i) {
    ExperimentConfig standalone = grid[i];
    standalone.sim.workload.seed = DerivePointSeed(5, i);
    const auto alone = ExperimentRunner::Run(standalone);
    ASSERT_TRUE(alone.ok()) << alone.status();
    EXPECT_EQ(Serialize({*alone}), Serialize({(*results)[i]}))
        << "point " << i;
  }
}

TEST(SweepRunner, ResultsAreBitIdenticalAcrossThreadCounts) {
  const std::vector<ExperimentConfig> grid = QuickGrid();
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 8;
  const auto a = SweepRunner(serial).Run(grid);
  const auto b = SweepRunner(parallel).Run(grid);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  EXPECT_EQ(Serialize(a.value()), Serialize(b.value()));
}

TEST(SweepRunner, CollectsResultsInInputOrder) {
  SweepOptions options;
  options.threads = 4;
  const auto results = SweepRunner(options).Run(QuickGrid());
  ASSERT_TRUE(results.ok()) << results.status();
  ASSERT_EQ(results->size(), 4u);
  EXPECT_EQ((*results)[0].algorithm_name, "fifo");
  EXPECT_EQ((*results)[1].algorithm_name, "static round-robin");
  EXPECT_EQ((*results)[2].algorithm_name, "dynamic max-bandwidth");
  EXPECT_EQ((*results)[3].algorithm_name, "max-bandwidth envelope");
}

TEST(SweepRunner, InvalidPointFailsFastNamingItsIndex) {
  std::vector<ExperimentConfig> grid = QuickGrid();
  grid[2].layout.hot_fraction = 2.0;  // fails Validate()
  const auto results = SweepRunner().Run(grid);
  ASSERT_FALSE(results.ok());
  EXPECT_NE(results.status().message().find("sweep point 2"),
            std::string::npos)
      << results.status();
}

TEST(SweepRunner, RunIndexedVisitsEveryIndex) {
  SweepOptions options;
  options.threads = 4;
  std::vector<std::atomic<int>> visits(23);
  const Status status =
      SweepRunner(options).RunIndexed(visits.size(), [&](size_t i) {
        ++visits[i];
        return Status::Ok();
      });
  ASSERT_TRUE(status.ok()) << status;
  for (size_t i = 0; i < visits.size(); ++i) EXPECT_EQ(visits[i], 1) << i;
}

TEST(SweepRunner, RunIndexedReportsLowestFailingIndex) {
  SweepOptions options;
  options.threads = 4;
  const Status status =
      SweepRunner(options).RunIndexed(16, [&](size_t i) {
        if (i % 5 == 3) {  // indices 3, 8, 13 fail
          return Status::InvalidArgument("boom");
        }
        return Status::Ok();
      });
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.message().find("sweep point 3"), std::string::npos)
      << status;
  EXPECT_NE(status.message().find("boom"), std::string::npos);
}

TEST(SweepRunner, RunIndexedCapturesExceptionsAsInternalStatus) {
  for (const int threads : {1, 4}) {
    SweepOptions options;
    options.threads = threads;
    std::vector<std::atomic<int>> visits(16);
    const Status status =
        SweepRunner(options).RunIndexed(visits.size(), [&](size_t i) {
          ++visits[i];
          if (i == 5) throw std::runtime_error("point 5 blew up");
          return Status::Ok();
        });
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kInternal);
    EXPECT_NE(status.message().find("sweep point 5"), std::string::npos)
        << status;
    EXPECT_NE(status.message().find("point 5 blew up"), std::string::npos)
        << status;
    // The throwing point must not have cancelled the others.
    for (size_t i = 0; i < visits.size(); ++i) EXPECT_EQ(visits[i], 1) << i;
  }
}

TEST(SweepRunner, FarmGridRunsAndMatchesSerial) {
  FarmConfig farm;
  farm.num_jukeboxes = 2;
  farm.per_jukebox = QuickConfig("dynamic-max-bandwidth");
  std::vector<FarmConfig> grid = {farm, farm};
  grid[1].per_jukebox.sim.workload.queue_length = 60;

  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 4;
  const auto a = SweepRunner(serial).RunFarms(grid);
  const auto b = SweepRunner(parallel).RunFarms(grid);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  ASSERT_EQ(a->size(), 2u);
  EXPECT_DOUBLE_EQ((*a)[0].aggregate.throughput_mb_per_s,
                   (*b)[0].aggregate.throughput_mb_per_s);
  EXPECT_DOUBLE_EQ((*a)[1].aggregate.mean_delay_seconds,
                   (*b)[1].aggregate.mean_delay_seconds);
}

}  // namespace
}  // namespace tapejuke
