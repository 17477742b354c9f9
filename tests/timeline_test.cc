// Tests for the timeline telemetry module (obs/timeline) and its
// integration into the simulators and the farm: schema/summary
// invariants, counter consistency against results, and — the load-bearing
// promise — that enabling the timeline never changes simulation results
// and farm timelines are byte-identical at any thread count.

#include "obs/timeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/farm.h"
#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace tapejuke {
namespace {

using obs::StatRegistry;
using obs::TimelineConfig;
using obs::TimelineSampler;
using obs::WindowStat;

TimelineConfig BufferedTimeline(double interval) {
  TimelineConfig config;
  config.interval_seconds = interval;
  config.buffer_only = true;
  return config;
}

// --- WindowStat edges (the windowed/timeline p99 discipline) ---

TEST(WindowStat, EmptyWindowQuantileIsZero) {
  WindowStat w(0.0, 100.0, 10);
  EXPECT_EQ(w.count(), 0);
  EXPECT_DOUBLE_EQ(w.Quantile(0.50), 0.0);
  EXPECT_DOUBLE_EQ(w.Quantile(0.99), 0.0);
}

TEST(WindowStat, SingleSampleWindow) {
  WindowStat w(0.0, 100.0, 10);
  w.Add(42.0);
  EXPECT_EQ(w.count(), 1);
  // Both quantiles interpolate inside the single occupied bucket [40, 50).
  EXPECT_GE(w.Quantile(0.50), 40.0);
  EXPECT_LE(w.Quantile(0.50), 50.0);
  EXPECT_LE(w.Quantile(0.50), w.Quantile(0.99));
  EXPECT_LE(w.Quantile(0.99), 50.0);
}

TEST(WindowStat, OverflowMassReportsTrackedMaximum) {
  WindowStat w(0.0, 10.0, 10);
  for (int i = 0; i < 9; ++i) w.Add(5.0);
  w.Add(5000.0);  // past the histogram range
  EXPECT_EQ(w.overflow(), 1);
  EXPECT_DOUBLE_EQ(w.window_max(), 5000.0);
  // p50 resolves inside the buckets; p99 lands in the overflow mass and
  // must report the true tracked maximum, not saturate at hi = 10.
  EXPECT_GE(w.Quantile(0.50), 5.0);
  EXPECT_LE(w.Quantile(0.50), 6.0);
  EXPECT_DOUBLE_EQ(w.Quantile(0.99), 5000.0);
}

TEST(WindowStat, ResetClearsWindow) {
  WindowStat w(0.0, 10.0, 10);
  w.Add(3.0);
  w.Add(5000.0);
  w.Reset();
  EXPECT_EQ(w.count(), 0);
  EXPECT_EQ(w.overflow(), 0);
  EXPECT_DOUBLE_EQ(w.Quantile(0.99), 0.0);
}

// --- StatRegistry invariants ---

TEST(StatRegistry, RejectsDuplicateNamesAcrossKinds) {
  TimelineSampler sampler(BufferedTimeline(10.0));
  StatRegistry* reg = sampler.registry();
  reg->AddCounter("x", [] { return int64_t{0}; });
  EXPECT_DEATH(reg->AddGauge("x", [] { return 0.0; }), "duplicate");
}

TEST(StatRegistry, FreezesAtFirstSample) {
  TimelineSampler sampler(BufferedTimeline(10.0));
  sampler.registry()->AddCounter("x", [] { return int64_t{0}; });
  sampler.SampleUpTo(10.0);
  EXPECT_DEATH(
      sampler.registry()->AddCounter("y", [] { return int64_t{0}; }),
      "frozen");
}

TEST(StatRegistry, ChecksCounterMonotonicity) {
  TimelineSampler sampler(BufferedTimeline(10.0));
  int64_t value = 5;
  sampler.registry()->AddCounter("down", [&value] { return value; });
  sampler.SampleUpTo(10.0);
  value = 3;
  EXPECT_DEATH(sampler.SampleUpTo(20.0), "decreased");
}

// --- TimelineSampler unit behavior ---

TEST(TimelineSampler, EmitsRowsOnTheIntervalGrid) {
  TimelineSampler sampler(BufferedTimeline(2.0));
  int64_t completed = 0;
  double depth = 0;
  double busy = 0;
  sampler.registry()->AddCounter("completed",
                                 [&completed] { return completed; });
  sampler.registry()->AddGauge("queue_depth", [&depth] { return depth; });
  sampler.registry()->AddAccum("busy_seconds", [&busy] { return busy; });
  WindowStat* delay = sampler.registry()->AddWindow("delay", 0, 100, 10);

  completed = 1;
  depth = 7;
  busy = 1.5;
  delay->Add(30.0);
  sampler.SampleUpTo(4.9);  // rows at t=2 and t=4
  ASSERT_EQ(sampler.rows().size(), 2u);
  EXPECT_DOUBLE_EQ(sampler.rows()[0].t, 2.0);
  EXPECT_DOUBLE_EQ(sampler.rows()[1].t, 4.0);
  // The window resets after the first row that consumed it.
  EXPECT_NE(sampler.rows()[0].json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(sampler.rows()[1].json.find("\"count\":0"), std::string::npos);
  // Accum rows carry deltas: all 1.5 in the first row, 0 in the second.
  EXPECT_NE(sampler.rows()[0].json.find("\"busy_seconds\":1.5"),
            std::string::npos);
  EXPECT_NE(sampler.rows()[1].json.find("\"busy_seconds\":0"),
            std::string::npos);

  completed = 3;
  depth = 2;
  busy = 4.0;
  ASSERT_TRUE(sampler.FinishAt(9.0).ok());
  // Rows at 6 and 8 from the grid, plus the final row at the end clock.
  ASSERT_EQ(sampler.rows().size(), 5u);
  EXPECT_DOUBLE_EQ(sampler.rows().back().t, 9.0);
  EXPECT_NE(sampler.rows()[2].json.find("\"busy_seconds\":2.5"),
            std::string::npos);

  EXPECT_EQ(sampler.summary().samples, 5);
  EXPECT_DOUBLE_EQ(sampler.summary().peak_queue_depth, 7.0);
  // The only populated window held one 30 s observation: its interval p99
  // interpolates inside bucket [30, 40).
  EXPECT_GE(sampler.summary().worst_window_p99, 30.0);
  EXPECT_LE(sampler.summary().worst_window_p99, 40.0);
  ASSERT_EQ(sampler.summary().final_counters.size(), 1u);
  EXPECT_EQ(sampler.summary().final_counters[0], 3);

  // Header and summary frame the document: 7 lines in total.
  EXPECT_NE(sampler.header_json().find("\"kind\":\"header\""),
            std::string::npos);
  EXPECT_NE(sampler.header_json().find("\"schema_version\":1"),
            std::string::npos);
  EXPECT_NE(sampler.summary_json().find("\"timeline_samples\":5"),
            std::string::npos);
  const std::string doc = sampler.RenderJsonl();
  EXPECT_EQ(std::count(doc.begin(), doc.end(), '\n'), 7);
}

TEST(TimelineSampler, NoGridSampleBeforeEndStillEmitsFinalRow) {
  TimelineSampler sampler(BufferedTimeline(1000.0));
  int64_t issued = 9;
  sampler.registry()->AddCounter("issued", [&issued] { return issued; });
  ASSERT_TRUE(sampler.FinishAt(10.0).ok());
  ASSERT_EQ(sampler.rows().size(), 1u);
  EXPECT_DOUBLE_EQ(sampler.rows()[0].t, 10.0);
  EXPECT_EQ(sampler.summary().final_counters[0], 9);
}

TEST(TimelineSampler, BoxIndexStampsRows) {
  TimelineConfig config = BufferedTimeline(5.0);
  config.box = 3;
  TimelineSampler sampler(config);
  sampler.registry()->AddGauge("queue_depth", [] { return 1.0; });
  ASSERT_TRUE(sampler.FinishAt(5.0).ok());
  EXPECT_NE(sampler.rows()[0].json.find("\"box\":3"), std::string::npos);
  // The header carries no box: the farm shares one header across boxes.
  EXPECT_EQ(sampler.header_json().find("\"box\""), std::string::npos);
}

// --- Simulator integration ---

struct Rig {
  explicit Rig(const JukeboxConfig& jb_config, const LayoutSpec& layout)
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
  config.duration_seconds = 200'000;
  config.warmup_seconds = 20'000;
  config.workload.model = model;
  config.workload.queue_length = 40;
  config.workload.mean_interarrival_seconds = 120;
  config.workload.seed = 17;
  return config;
}

SimulationResult RunSingleDrive(const SimulationConfig& config) {
  Rig rig(PaperJukebox(), LayoutSpec{});
  GreedyScheduler sched(&rig.jukebox, &rig.catalog,
                        TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  Simulator sim(&rig.jukebox, &rig.catalog, &sched, config);
  return sim.Run();
}

TEST(SimulatorTimeline, ResultsIdenticalWithTimelineOn) {
  const SimulationConfig off = ShortSim(QueuingModel::kOpen);
  SimulationConfig on = off;
  on.timeline = BufferedTimeline(10'000.0);

  const SimulationResult a = RunSingleDrive(off);
  const SimulationResult b = RunSingleDrive(on);
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.issued_requests, b.issued_requests);
  EXPECT_DOUBLE_EQ(a.throughput_mb_per_s, b.throughput_mb_per_s);
  EXPECT_DOUBLE_EQ(a.mean_delay_seconds, b.mean_delay_seconds);
  EXPECT_DOUBLE_EQ(a.p99_delay_seconds, b.p99_delay_seconds);
  EXPECT_DOUBLE_EQ(a.mean_outstanding, b.mean_outstanding);
  EXPECT_DOUBLE_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(a.counters.tape_switches, b.counters.tape_switches);
}

TEST(SimulatorTimeline, FinalCountersMatchResultTotals) {
  SimulationConfig config = ShortSim(QueuingModel::kClosed);
  config.timeline = BufferedTimeline(10'000.0);

  Rig rig(PaperJukebox(), LayoutSpec{});
  GreedyScheduler sched(&rig.jukebox, &rig.catalog,
                        TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  Simulator sim(&rig.jukebox, &rig.catalog, &sched, config);
  const SimulationResult result = sim.Run();

  const TimelineSampler* timeline = sim.timeline();
  ASSERT_NE(timeline, nullptr);
  EXPECT_GT(timeline->rows().size(), 10u);
  EXPECT_EQ(timeline->summary().samples,
            static_cast<int64_t>(timeline->rows().size()));

  const std::vector<std::string> names = timeline->counter_names();
  const std::vector<int64_t>& final_counters =
      timeline->summary().final_counters;
  ASSERT_EQ(names.size(), final_counters.size());
  for (size_t i = 0; i < names.size(); ++i) {
    if (names[i] == "issued") {
      EXPECT_EQ(final_counters[i], result.issued_requests);
    } else if (names[i] == "completed") {
      EXPECT_EQ(final_counters[i], result.completed_total);
    } else if (names[i] == "failed") {
      EXPECT_EQ(final_counters[i], result.failed_requests);
    } else if (names[i] == "expired") {
      EXPECT_EQ(final_counters[i], result.expired_requests);
    } else if (names[i] == "shed") {
      EXPECT_EQ(final_counters[i], result.shed_requests);
    }
  }

  // Rows are strictly time-ordered and the last one sits at the final
  // simulated clock, where the counters equal the whole-run totals.
  double last = 0;
  for (const TimelineSampler::Row& row : timeline->rows()) {
    EXPECT_GT(row.t, last);
    last = row.t;
  }
  EXPECT_DOUBLE_EQ(last, result.simulated_seconds);
}

TEST(SimulatorTimeline, TenantClassesGetPerClassStats) {
  SimulationConfig config = ShortSim(QueuingModel::kOpen);
  config.workload.tenant_classes.resize(2);
  config.workload.tenant_classes[0].weight = 1.0;
  config.workload.tenant_classes[1].weight = 2.0;
  config.timeline = BufferedTimeline(20'000.0);

  Rig rig(PaperJukebox(), LayoutSpec{});
  GreedyScheduler sched(&rig.jukebox, &rig.catalog,
                        TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  Simulator sim(&rig.jukebox, &rig.catalog, &sched, config);
  (void)sim.Run();
  const TimelineSampler* timeline = sim.timeline();
  ASSERT_NE(timeline, nullptr);
  EXPECT_NE(timeline->header_json().find("class0_completed"),
            std::string::npos);
  EXPECT_NE(timeline->header_json().find("class1_delay"),
            std::string::npos);
}

// --- Multi-drive integration ---

TEST(MultiDriveTimeline, ResultsIdenticalWithTimelineOn) {
  const SimulationConfig off = ShortSim(QueuingModel::kClosed);
  SimulationConfig on = off;
  on.timeline = BufferedTimeline(10'000.0);

  DriveRig rig_a(2, LayoutSpec{}, "dynamic-max-bandwidth", PaperJukebox());
  Simulator sim_a(&rig_a.jukebox, &rig_a.catalog, rig_a.scheduler.get(),
                  off);
  const SimulationResult a = sim_a.Run();

  DriveRig rig_b(2, LayoutSpec{}, "dynamic-max-bandwidth", PaperJukebox());
  Simulator sim_b(&rig_b.jukebox, &rig_b.catalog, rig_b.scheduler.get(),
                  on);
  const SimulationResult b = sim_b.Run();

  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.issued_requests, b.issued_requests);
  EXPECT_DOUBLE_EQ(a.throughput_mb_per_s, b.throughput_mb_per_s);
  EXPECT_DOUBLE_EQ(a.mean_delay_seconds, b.mean_delay_seconds);
  EXPECT_DOUBLE_EQ(a.simulated_seconds, b.simulated_seconds);
  EXPECT_EQ(sim_a.claim_conflicts(), sim_b.claim_conflicts());

  const TimelineSampler* timeline = sim_b.timeline();
  ASSERT_NE(timeline, nullptr);
  EXPECT_GT(timeline->rows().size(), 10u);
  // Counter registration order: issued, completed, ...
  EXPECT_EQ(timeline->summary().final_counters[1], b.completed_total);
}

// --- Farm integration: per-box files + merged file, thread invariance ---

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

FarmConfig TimelineFarm(int32_t boxes, int64_t total_queue) {
  FarmConfig config;
  config.num_jukeboxes = boxes;
  config.per_jukebox.algorithm =
      AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  config.per_jukebox.sim.duration_seconds = 150'000;
  config.per_jukebox.sim.warmup_seconds = 15'000;
  config.per_jukebox.sim.workload.queue_length = total_queue;
  config.per_jukebox.sim.workload.seed = 77;
  return config;
}

TEST(FarmTimeline, MergedTimelineByteIdenticalAcrossThreadCounts) {
  const std::string dir = ::testing::TempDir();
  FarmConfig config = TimelineFarm(3, 60);
  config.per_jukebox.sim.timeline.interval_seconds = 15'000;

  config.threads = 1;
  config.per_jukebox.sim.timeline.out = dir + "/farm_t1.jsonl";
  (void)FarmSimulator(config).Run();

  config.threads = 3;
  config.per_jukebox.sim.timeline.out = dir + "/farm_t3.jsonl";
  (void)FarmSimulator(config).Run();

  const std::string merged_t1 = ReadFileOrDie(dir + "/farm_t1.jsonl");
  const std::string merged_t3 = ReadFileOrDie(dir + "/farm_t3.jsonl");
  EXPECT_FALSE(merged_t1.empty());
  EXPECT_EQ(merged_t1, merged_t3);

  // The merged summary line announces the box count.
  EXPECT_NE(merged_t1.find("\"boxes\":3"), std::string::npos);

  // Per-box files exist, carry the box stamp, and are thread-invariant.
  for (int box = 0; box < 3; ++box) {
    const std::string suffix = ".box" + std::to_string(box) + ".jsonl";
    const std::string t1 = ReadFileOrDie(dir + "/farm_t1" + suffix);
    const std::string t3 = ReadFileOrDie(dir + "/farm_t3" + suffix);
    EXPECT_FALSE(t1.empty());
    EXPECT_EQ(t1, t3);
    EXPECT_NE(t1.find("\"box\":" + std::to_string(box)), std::string::npos);
    std::remove((dir + "/farm_t1" + suffix).c_str());
    std::remove((dir + "/farm_t3" + suffix).c_str());
  }
  std::remove((dir + "/farm_t1.jsonl").c_str());
  std::remove((dir + "/farm_t3.jsonl").c_str());
}

TEST(FarmTimeline, ResultsUnchangedByTimeline) {
  FarmConfig config = TimelineFarm(2, 40);
  config.threads = 2;

  const FarmResult off = FarmSimulator(config).Run();
  config.per_jukebox.sim.timeline.interval_seconds = 20'000;
  config.per_jukebox.sim.timeline.out =
      ::testing::TempDir() + "/farm_inert.jsonl";
  const FarmResult on = FarmSimulator(config).Run();

  EXPECT_EQ(off.aggregate.completed_requests,
            on.aggregate.completed_requests);
  EXPECT_DOUBLE_EQ(off.aggregate.throughput_mb_per_s,
                   on.aggregate.throughput_mb_per_s);
  EXPECT_DOUBLE_EQ(off.aggregate.mean_delay_seconds,
                   on.aggregate.mean_delay_seconds);
  EXPECT_EQ(off.completions_per_jukebox, on.completions_per_jukebox);

  std::remove((::testing::TempDir() + "/farm_inert.jsonl").c_str());
  std::remove((::testing::TempDir() + "/farm_inert.box0.jsonl").c_str());
  std::remove((::testing::TempDir() + "/farm_inert.box1.jsonl").c_str());
}

// --- Config validation ---

TEST(TimelineConfig, Validation) {
  SimulationConfig config = ShortSim(QueuingModel::kClosed);
  EXPECT_TRUE(config.Validate().ok());
  config.timeline.interval_seconds = -1;
  EXPECT_FALSE(config.Validate().ok());
  config.timeline.interval_seconds = 0;
  config.timeline.out = "somewhere.jsonl";
  EXPECT_FALSE(config.Validate().ok());
  config.timeline.interval_seconds = 100;
  EXPECT_TRUE(config.Validate().ok());
}

}  // namespace
}  // namespace tapejuke
