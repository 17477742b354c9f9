// Tests for the delta-staging write path.

#include "sim/write_path.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/results_io.h"
#include "layout/placement.h"
#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

struct Rig {
  explicit Rig(int32_t num_replicas = 0)
      : jukebox(PaperJukebox()),
        catalog(LayoutBuilder::Build(&jukebox, MakeLayout(num_replicas))
                    .value()),
        scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth,
                  /*dynamic=*/true) {}

  static LayoutSpec MakeLayout(int32_t num_replicas) {
    LayoutSpec layout;
    layout.num_replicas = num_replicas;
    layout.start_position = num_replicas == 0 ? 0.0 : 1.0;
    return layout;
  }

  Jukebox jukebox;
  Catalog catalog;
  GreedyScheduler scheduler;
};

/// `sim` on `rig` with the write path `writes`.
SimulationResult RunWrites(Rig* rig, SimulationConfig sim,
                           const WritePathConfig& writes) {
  sim.writes = writes;
  Simulator simulator(&rig->jukebox, &rig->catalog, &rig->scheduler, sim);
  return simulator.Run();
}

SimulationConfig ShortSim(QueuingModel model = QueuingModel::kClosed) {
  SimulationConfig config;
  config.duration_seconds = 300'000;
  config.warmup_seconds = 30'000;
  config.workload.model = model;
  config.workload.queue_length = 40;
  config.workload.mean_interarrival_seconds = 90;
  config.workload.seed = 41;
  return config;
}

TEST(WritePathConfig, Validation) {
  WritePathConfig config;
  EXPECT_TRUE(config.Validate().ok());
  config.piggyback_min_blocks = 0;
  EXPECT_FALSE(config.Validate().ok());
}

TEST(WritePath, WritesAreStagedAndFlushed) {
  Rig rig;
  WritePathConfig writes;
  writes.mean_write_interarrival_seconds = 200;
  const SimulationResult result = RunWrites(&rig, ShortSim(), writes);
  EXPECT_GT(result.completed_requests, 100);
  // Flushes hold no process back: the closed population stays whole.
  EXPECT_NEAR(result.mean_outstanding, 40.0, 0.5);
  const WritePathStats& stats = result.write_path;
  EXPECT_GT(stats.writes_accepted, 1000);
  EXPECT_GT(stats.blocks_flushed, 0);
  EXPECT_GT(stats.piggyback_flushes, 0);
  // The staging buffer bounds occupancy (capacity + one inter-flush burst).
  EXPECT_LE(stats.max_buffer_occupancy, kWriteBufferCapacityBlocks + 128);
}

TEST(WritePath, ReplicatedBlocksDirtyEveryCopy) {
  Rig rig(/*num_replicas=*/9);
  WritePathConfig writes;
  writes.mean_write_interarrival_seconds = 500;
  // RH 1.0: writes follow the read stream's RH, so every write hits a hot
  // block.
  SimulationConfig sim_config = ShortSim();
  sim_config.workload.hot_request_fraction = 1.0;
  const SimulationResult result = RunWrites(&rig, sim_config, writes);
  const WritePathStats& stats = result.write_path;
  ASSERT_GT(stats.writes_accepted, 100);
  // Each hot write dirties up to 10 copies (duplicates collapse).
  EXPECT_GT(static_cast<double>(stats.dirty_updates_created),
            5.0 * static_cast<double>(stats.writes_accepted));
}

TEST(WritePath, ColdReadStreamDirtiesOneCopyPerWrite) {
  Rig rig(/*num_replicas=*/9);
  WritePathConfig writes;
  writes.mean_write_interarrival_seconds = 500;
  // RH 0.0: writes follow the read stream's RH, so no write hits a
  // replicated hot block and each dirties at most its one cold copy.
  SimulationConfig sim_config = ShortSim();
  sim_config.workload.hot_request_fraction = 0.0;
  const SimulationResult result = RunWrites(&rig, sim_config, writes);
  const WritePathStats& stats = result.write_path;
  ASSERT_GT(stats.writes_accepted, 100);
  EXPECT_GT(stats.dirty_updates_created, 0);
  EXPECT_LE(stats.dirty_updates_created, stats.writes_accepted);
}

TEST(WritePath, WriteTrafficDegradesReads) {
  auto run = [](double write_gap) {
    Rig rig;
    WritePathConfig writes;
    writes.mean_write_interarrival_seconds = write_gap;
    return RunWrites(&rig, ShortSim(), writes);
  };
  const SimulationResult none = run(0);      // writes disabled
  const SimulationResult heavy = run(60.0);  // one write per minute
  EXPECT_GT(none.requests_per_minute, heavy.requests_per_minute);
}

TEST(WritePath, NoWritesMatchesPlainSimulator) {
  Rig rig_a;
  WritePathConfig writes;
  writes.mean_write_interarrival_seconds = 0;  // disabled
  const SimulationResult a = RunWrites(&rig_a, ShortSim(), writes);

  Rig rig_b;
  Simulator plain(&rig_b.jukebox, &rig_b.catalog, &rig_b.scheduler,
                  ShortSim());
  const SimulationResult b = plain.Run();
  auto to_json = [](const SimulationResult& result) {
    std::ostringstream os;
    JsonWriter w(&os);
    WriteJson(&w, result);
    return os.str();
  };
  EXPECT_EQ(to_json(a), to_json(b));
}

TEST(WritePath, IdleFlushCleansBufferUnderLightLoad) {
  Rig rig;
  WritePathConfig writes;
  writes.mean_write_interarrival_seconds = 300;
  SimulationConfig sim_config = ShortSim(QueuingModel::kOpen);
  sim_config.workload.mean_interarrival_seconds = 600;  // mostly idle
  const SimulationResult result = RunWrites(&rig, sim_config, writes);
  EXPECT_GT(result.write_path.idle_flushes, 0);
  // Idle cleaning keeps the buffer well under capacity.
  EXPECT_LT(result.write_path.max_buffer_occupancy, kWriteBufferCapacityBlocks);
  EXPECT_EQ(result.write_path.forced_flushes, 0);
}

TEST(WritePath, OpenModelDriveWorkFitsInRun) {
  // Arrivals during a flush are delivered at their own timestamps, so the
  // clock never runs backwards: the drive's read-side busy time plus its
  // write time fits in the run.
  Rig rig;
  WritePathConfig writes;
  writes.mean_write_interarrival_seconds = 300;
  SimulationConfig sim_config = ShortSim(QueuingModel::kOpen);
  sim_config.workload.mean_interarrival_seconds = 600;
  const SimulationResult result = RunWrites(&rig, sim_config, writes);
  ASSERT_GT(result.write_path.write_seconds, 0);
  EXPECT_LE(result.counters.BusySeconds() + result.write_path.write_seconds,
            result.simulated_seconds);
}

TEST(WritePath, ForcedFlushWhenBufferTooSmall) {
  Rig rig;
  WritePathConfig writes;
  // A write every 5 s outruns the fixed buffer within the first hour.
  writes.mean_write_interarrival_seconds = 5;
  writes.piggyback = false;
  writes.idle_flush = false;
  const SimulationResult result = RunWrites(&rig, ShortSim(), writes);
  EXPECT_GT(result.write_path.forced_flushes, 0);
}

TEST(WritePath, ForcedFlushWaitsUntilBufferOverCapacity) {
  Rig rig;
  WritePathConfig writes;
  writes.piggyback = false;
  writes.idle_flush = false;
  // A write every 2 000 s stages about 150 single-copy updates over the
  // run: the fixed buffer never fills, so nothing is ever flushed.
  writes.mean_write_interarrival_seconds = 2000;
  {
    const SimulationResult result = RunWrites(&rig, ShortSim(), writes);
    EXPECT_GT(result.write_path.max_buffer_occupancy, 0);
    EXPECT_LE(result.write_path.max_buffer_occupancy,
              kWriteBufferCapacityBlocks);
    EXPECT_EQ(result.write_path.forced_flushes, 0);
    EXPECT_EQ(result.write_path.blocks_flushed, 0);
  }
  // A write every 5 s overruns it: forced flushes start only once the
  // buffer holds more than kWriteBufferCapacityBlocks updates.
  Rig fast_rig;
  writes.mean_write_interarrival_seconds = 5;
  const SimulationResult result = RunWrites(&fast_rig, ShortSim(), writes);
  EXPECT_GT(result.write_path.forced_flushes, 0);
  EXPECT_GT(result.write_path.max_buffer_occupancy, kWriteBufferCapacityBlocks);
}

}  // namespace
}  // namespace tapejuke
