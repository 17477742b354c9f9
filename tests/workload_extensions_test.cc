// Tests for the workload extensions: Zipf popularity.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/experiment.h"
#include "sim/workload.h"

namespace tapejuke {
namespace {

struct Rig {
  Rig() : jukebox(MakeConfig()) {
    catalog.emplace(LayoutBuilder::Build(&jukebox, LayoutSpec{}).value());
  }
  static JukeboxConfig MakeConfig() {
    JukeboxConfig config;
    config.num_tapes = 10;
    config.block_size_mb = 16;
    return config;
  }
  Jukebox jukebox;
  std::optional<Catalog> catalog;
};

TEST(ZipfWorkload, ValidatesTheta) {
  WorkloadConfig config;
  config.skew = SkewModel::kZipf;
  config.zipf_theta = -0.1;
  EXPECT_FALSE(config.Validate().ok());
  config.zipf_theta = 0.8;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ZipfWorkload, FrequenciesFollowPowerLaw) {
  Rig rig;
  WorkloadConfig config;
  config.skew = SkewModel::kZipf;
  config.zipf_theta = 1.0;
  config.seed = 3;
  WorkloadGenerator generator(&*rig.catalog, config);
  std::vector<int64_t> counts(
      static_cast<size_t>(rig.catalog->num_blocks()));
  const int64_t draws = 500'000;
  for (int64_t i = 0; i < draws; ++i) {
    ++counts[static_cast<size_t>(generator.NextBlock())];
  }
  // Rank 1 : rank 10 : rank 100 should scale ~ 1 : 1/10 : 1/100.
  EXPECT_NEAR(static_cast<double>(counts[9]) / counts[0], 0.1, 0.03);
  EXPECT_NEAR(static_cast<double>(counts[99]) / counts[0], 0.01, 0.01);
}

TEST(ZipfWorkload, ThetaZeroIsUniform) {
  Rig rig;
  WorkloadConfig config;
  config.skew = SkewModel::kZipf;
  config.zipf_theta = 0.0;
  config.seed = 5;
  WorkloadGenerator generator(&*rig.catalog, config);
  int64_t low_half = 0;
  const int64_t draws = 200'000;
  for (int64_t i = 0; i < draws; ++i) {
    if (generator.NextBlock() < rig.catalog->num_blocks() / 2) ++low_half;
  }
  EXPECT_NEAR(static_cast<double>(low_half) / draws, 0.5, 0.01);
}

TEST(ZipfWorkload, HigherThetaConcentratesOnHotRegion) {
  // Because block id == popularity rank and the layout places low ids in
  // the hot region, Zipf skew composes with placement: the hot-region hit
  // fraction grows with theta.
  Rig rig;
  auto hot_fraction = [&](double theta) {
    WorkloadConfig config;
    config.skew = SkewModel::kZipf;
    config.zipf_theta = theta;
    config.seed = 7;
    WorkloadGenerator generator(&*rig.catalog, config);
    int64_t hot = 0;
    const int64_t draws = 100'000;
    for (int64_t i = 0; i < draws; ++i) {
      if (rig.catalog->IsHot(generator.NextBlock())) ++hot;
    }
    return static_cast<double>(hot) / draws;
  };
  const double at_0 = hot_fraction(0.0);
  const double at_08 = hot_fraction(0.8);
  const double at_12 = hot_fraction(1.2);
  EXPECT_NEAR(at_0, 0.10, 0.01);  // uniform: PH itself
  EXPECT_GT(at_08, 0.4);
  EXPECT_GT(at_12, at_08);
}

TEST(ZipfWorkload, EndToEndSimulationBenefitsFromReplication) {
  auto run = [](int nr) {
    ExperimentConfig config;
    config.layout.num_replicas = nr;
    config.layout.start_position = nr == 0 ? 0.0 : 1.0;
    config.sim.duration_seconds = 400'000;
    config.sim.warmup_seconds = 40'000;
    config.sim.workload.skew = SkewModel::kZipf;
    config.sim.workload.zipf_theta = 0.9;
    config.sim.workload.queue_length = 60;
    config.sim.workload.seed = 13;
    return ExperimentRunner::Run(config).value().sim;
  };
  EXPECT_GT(run(9).requests_per_minute, run(0).requests_per_minute);
}

}  // namespace
}  // namespace tapejuke
