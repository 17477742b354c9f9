// Additional multi-drive tests: policies, insertion toggle, and edge
// geometries.

#include <gtest/gtest.h>

#include <string>

#include "layout/placement.h"
#include "test_util.h"

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

SimulationConfig ShortSim(int64_t queue) {
  SimulationConfig config;
  config.duration_seconds = 250'000;
  config.warmup_seconds = 25'000;
  config.workload.queue_length = queue;
  config.workload.seed = 123;
  return config;
}

SimulationResult RunWith(int32_t num_drives, int64_t queue,
                         const std::string& algorithm =
                             "dynamic-max-bandwidth") {
  return DriveRig(num_drives, LayoutSpec{}, algorithm, PaperJukebox())
      .Run(ShortSim(queue));
}

TEST(MultiDriveOptions, DynamicInsertionHelps) {
  const SimulationResult a = RunWith(2, 120, "dynamic-max-bandwidth");
  const SimulationResult b = RunWith(2, 120, "static-max-bandwidth");
  EXPECT_GT(a.requests_per_minute, b.requests_per_minute);
}

TEST(MultiDriveOptions, AllPoliciesMakeProgress) {
  for (const TapePolicy policy :
       {TapePolicy::kRoundRobin, TapePolicy::kMaxRequests,
        TapePolicy::kMaxBandwidth, TapePolicy::kOldestMaxRequests,
        TapePolicy::kOldestMaxBandwidth}) {
    const SimulationResult result =
        RunWith(2, 60, std::string("dynamic-") + TapePolicyName(policy));
    EXPECT_GT(result.completed_requests, 500)
        << TapePolicyName(policy);
  }
}

TEST(MultiDriveOptions, AsManyDrivesAsTapesStillWorks) {
  JukeboxConfig config = PaperJukebox();
  config.num_tapes = 3;
  const SimulationResult result =
      DriveRig(3, LayoutSpec{}, "dynamic-max-bandwidth", config)
          .Run(ShortSim(30));
  EXPECT_GT(result.completed_requests, 200);
}

TEST(MultiDriveOptions, TinyPopulationDoesNotDeadlock) {
  const SimulationResult result = RunWith(4, /*queue=*/2);
  // Fewer requests than drives: some drives idle, the rest serve.
  EXPECT_GT(result.completed_requests, 100);
  EXPECT_NEAR(result.mean_outstanding, 2.0, 0.1);
}

TEST(MultiDriveOptions, CountersAreConsistent) {
  const SimulationResult result = RunWith(3, 60);
  EXPECT_EQ(result.counters.mb_read, result.counters.blocks_read * 16);
  // One read can satisfy several requests for the same block, so blocks
  // read is at most (and normally close to) the completion count.
  EXPECT_LE(result.counters.blocks_read, result.completed_requests);
  EXPECT_GT(result.counters.blocks_read,
            result.completed_requests * 9 / 10);
  // Three drives can be busy concurrently: accounted busy time may exceed
  // the wall clock of the measurement window.
  EXPECT_GT(result.counters.BusySeconds(), result.measured_seconds);
}

}  // namespace
}  // namespace tapejuke
