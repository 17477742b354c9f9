// Tests for the core experiment API: algorithm parsing, the factory, the
// runner under more and less load, and the cost-performance analysis.

#include "core/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

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
  // NaN passes a `<= 0` test; it must still be refused before the run.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  config = QuickConfig();
  config.sim.duration_seconds = nan;
  config.sim.warmup_seconds = nan;  // what --sim-seconds=nan derives
  EXPECT_EQ(ExperimentRunner::Run(config).status().code(),
            StatusCode::kInvalidArgument);
  config = QuickConfig();
  config.sim.warmup_seconds = nan;
  EXPECT_EQ(ExperimentRunner::Run(config).status().code(),
            StatusCode::kInvalidArgument);
}

// Every range check refuses NaN and +inf. Each case poisons one field of
// an otherwise valid config (switching on the feature that reads it) and
// runs it through ExperimentRunner::Run, so a field whose check NaN or
// +inf slipped past would run, or abort inside the simulator, instead of
// failing here.
struct NanCase {
  const char* field;
  void (*poison)(ExperimentConfig* config, double bad);
};

// Open model with a two-class mix: class 0 carries the SLO adaptive
// admission defends, class 1 is best effort.
void OpenTwoClasses(ExperimentConfig* config) {
  config->sim.workload.model = QueuingModel::kOpen;
  config->sim.workload.tenant_classes.resize(2);
  config->sim.workload.tenant_classes[0].p99_slo_seconds = 15'000;
}

const NanCase kNanCases[] = {
    {"mean_interarrival_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.workload.model = QueuingModel::kOpen;
       c->sim.workload.mean_interarrival_seconds = bad;
     }},
    {"hot_request_fraction",
     [](ExperimentConfig* c, double bad) {
       c->sim.workload.hot_request_fraction = bad;
     }},
    {"zipf_theta",
     [](ExperimentConfig* c, double bad) {
       c->sim.workload.skew = SkewModel::kZipf;
       c->sim.workload.zipf_theta = bad;
     }},
    {"tenant_weight",
     [](ExperimentConfig* c, double bad) {
       OpenTwoClasses(c);
       c->sim.workload.tenant_classes[1].weight = bad;
     }},
    {"tenant_deadline_seconds",
     [](ExperimentConfig* c, double bad) {
       OpenTwoClasses(c);
       c->sim.workload.tenant_classes[1].deadline_seconds = bad;
     }},
    {"p99_slo_seconds",
     [](ExperimentConfig* c, double bad) {
       OpenTwoClasses(c);
       c->sim.admission.policy = AdmissionPolicy::kAdaptive;
       c->sim.workload.tenant_classes[0].p99_slo_seconds = bad;
     }},
    {"burst_interval_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.workload.model = QueuingModel::kOpen;
       c->sim.workload.burst_interval_seconds = bad;
     }},
    {"burst_size",
     [](ExperimentConfig* c, double bad) {
       c->sim.workload.model = QueuingModel::kOpen;
       c->sim.workload.burst_interval_seconds = 5'000;
       c->sim.workload.burst_size = bad;
     }},
    {"burst_spread_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.workload.model = QueuingModel::kOpen;
       c->sim.workload.burst_interval_seconds = 5'000;
       c->sim.workload.burst_size = 4;
       c->sim.workload.burst_spread_seconds = bad;
     }},
    {"transient_read_error_prob",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.transient_read_error_prob = bad;
     }},
    {"permanent_media_error_prob",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.permanent_media_error_prob = bad;
     }},
    {"whole_tape_fraction",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.permanent_media_error_prob = 0.01;
       c->sim.faults.whole_tape_fraction = bad;
     }},
    {"drive_mtbf_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.drive_mtbf_seconds = bad;
       c->sim.faults.drive_mttr_seconds = 600;
     }},
    {"drive_mttr_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.drive_mtbf_seconds = 50'000;
       c->sim.faults.drive_mttr_seconds = bad;
     }},
    {"robot_fault_prob",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.robot_fault_prob = bad;
     }},
    {"retry_backoff_base_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.transient_read_error_prob = 0.05;
       c->sim.faults.retry_backoff_base_seconds = bad;
     }},
    {"retry_backoff_max_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.transient_read_error_prob = 0.05;
       c->sim.faults.retry_backoff_base_seconds = 20;
       c->sim.faults.retry_backoff_max_seconds = bad;
     }},
    {"scrub_interval_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.transient_read_error_prob = 0.05;
       c->sim.repair.enable_repair = true;
       c->sim.repair.scrub_interval_seconds = bad;
     }},
    {"repair_bandwidth_mb_per_s",
     [](ExperimentConfig* c, double bad) {
       c->sim.faults.permanent_media_error_prob = 0.01;
       c->sim.repair.enable_repair = true;
       c->sim.repair.repair_bandwidth_mb_per_s = bad;
     }},
    {"timeline_interval_seconds",
     [](ExperimentConfig* c, double bad) {
       c->sim.timeline.interval_seconds = bad;
     }},
    {"layout_hot_fraction",
     [](ExperimentConfig* c, double bad) { c->layout.hot_fraction = bad; }},
    {"layout_start_position",
     [](ExperimentConfig* c, double bad) { c->layout.start_position = bad; }},
    {"short_threshold_mb",
     [](ExperimentConfig* c, double bad) {
       c->jukebox.timing.short_threshold_mb = bad;
     }},
};

class NanConfig
    : public ::testing::TestWithParam<std::tuple<NanCase, double>> {};

TEST_P(NanConfig, RunReturnsInvalidArgument) {
  const auto& [poison, bad] = GetParam();
  ExperimentConfig config = QuickConfig();
  poison.poison(&config, bad);
  EXPECT_EQ(ExperimentRunner::Run(config).status().code(),
            StatusCode::kInvalidArgument);
}

// NaN cases are named after the field, +inf cases add "_inf".
INSTANTIATE_TEST_SUITE_P(
    EveryField, NanConfig,
    ::testing::Combine(
        ::testing::ValuesIn(kNanCases),
        ::testing::Values(std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity())),
    [](const ::testing::TestParamInfo<std::tuple<NanCase, double>>& info) {
      std::string name = std::get<0>(info.param).field;
      if (!std::isnan(std::get<1>(info.param))) name += "_inf";
      return name;
    });

// A NaN SLO is refused as a bad SLO, not as a mix with no SLO at all.
TEST(ExperimentRunner, NanSloIsNamedInTheError) {
  ExperimentConfig config = QuickConfig();
  OpenTwoClasses(&config);
  config.sim.admission.policy = AdmissionPolicy::kAdaptive;
  config.sim.workload.tenant_classes[0].p99_slo_seconds =
      std::numeric_limits<double>::quiet_NaN();
  const Status status = ExperimentRunner::Run(config).status();
  EXPECT_NE(status.message().find("p99 SLO must be >= 0"), std::string::npos)
      << status;
}

// Combinations the simulation loop cannot run come back as
// InvalidArgument from the runner, never as an abort.
void ExpectRefused(const ExperimentConfig& config) {
  EXPECT_EQ(ExperimentRunner::Run(config).status().code(),
            StatusCode::kInvalidArgument);
}

ExperimentConfig WithRepair(ExperimentConfig config) {
  config.sim.faults.permanent_media_error_prob = 5e-3;
  config.sim.repair.enable_repair = true;
  config.sim.repair.scrub_interval_seconds = 50'000;
  return config;
}

TEST(ExperimentRunner, RefusesRepairWithWrites) {
  ExperimentConfig config = WithRepair(QuickConfig());
  ASSERT_TRUE(config.Validate().ok());
  config.sim.writes.emplace();
  ExpectRefused(config);
}

TEST(ExperimentRunner, RefusesRepairWithLifecycle) {
  ExperimentConfig config = WithRepair(QuickConfig());
  config.sim.lifecycle.emplace();
  ExpectRefused(config);
}

TEST(ExperimentRunner, RefusesWritesWithLifecycle) {
  ExperimentConfig config = QuickConfig();
  config.sim.writes.emplace();
  config.sim.lifecycle.emplace();
  ExpectRefused(config);
}

TEST(ExperimentRunner, RefusesWritesWithFaults) {
  ExperimentConfig config = QuickConfig();
  config.sim.writes.emplace();
  config.sim.faults.transient_read_error_prob = 0.01;
  ExpectRefused(config);
}

TEST(ExperimentRunner, RefusesLifecycleWithFaults) {
  ExperimentConfig config = QuickConfig();
  config.sim.lifecycle.emplace();
  config.sim.faults.transient_read_error_prob = 0.01;
  ExpectRefused(config);
}

TEST(ExperimentRunner, RefusesAnInvalidWritePathOrFill) {
  ExperimentConfig writes = QuickConfig();
  writes.sim.writes.emplace().piggyback_min_blocks = 0;
  ExpectRefused(writes);
  ExperimentConfig lifecycle = QuickConfig();
  lifecycle.sim.lifecycle.emplace().num_epochs = 0;
  ExpectRefused(lifecycle);
}

TEST(ExperimentRunner, RefusesZeroDrives) {
  ExperimentConfig config = QuickConfig();
  config.jukebox.num_drives = 0;
  ExpectRefused(config);
}

TEST(ExperimentRunner, RefusesMoreDrivesThanTapes) {
  ExperimentConfig config = QuickConfig();
  config.jukebox.num_drives = config.jukebox.num_tapes;
  ASSERT_TRUE(config.Validate().ok());
  config.jukebox.num_drives = config.jukebox.num_tapes + 1;
  ExpectRefused(config);
}

// The bucket's boundary: a 64 MB block exactly fills the 64 MB token
// bucket, so metered repair with it validates and runs to the end.
TEST(ExperimentRunner, MeteredRepairRunsWithBlocksThatFillTheBucket) {
  ExperimentConfig config = QuickConfig();
  config.jukebox.block_size_mb = 64;
  config.sim.faults.permanent_media_error_prob = 5e-3;
  config.sim.repair.enable_repair = true;
  config.sim.repair.scrub_interval_seconds = 50'000;
  config.sim.repair.repair_bandwidth_mb_per_s = 20;
  ASSERT_TRUE(config.Validate().ok()) << config.Validate();
  const StatusOr<ExperimentResult> result = ExperimentRunner::Run(config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result->sim.repair_enabled);
  EXPECT_GT(result->sim.completed_requests, 0);
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

TEST(ExperimentRunner, MoreLoadMoreThroughputAndDelay) {
  ExperimentConfig config = QuickConfig();
  config.sim.workload.queue_length = 20;
  const SimulationResult light = ExperimentRunner::Run(config).value().sim;
  config.sim.workload.queue_length = 80;
  const SimulationResult heavy = ExperimentRunner::Run(config).value().sim;
  EXPECT_GT(heavy.requests_per_minute, light.requests_per_minute);
  EXPECT_GT(heavy.mean_delay_minutes, light.mean_delay_minutes);
}

TEST(ExperimentRunner, OpenThroughputTracksArrivalRate) {
  ExperimentConfig config = QuickConfig();
  config.sim.workload.model = QueuingModel::kOpen;
  // Light load: throughput ~ 60/interarrival requests per minute.
  config.sim.workload.mean_interarrival_seconds = 600;
  EXPECT_NEAR(ExperimentRunner::Run(config).value().sim.requests_per_minute,
              0.1, 0.04);
  config.sim.workload.mean_interarrival_seconds = 300;
  EXPECT_NEAR(ExperimentRunner::Run(config).value().sim.requests_per_minute,
              0.2, 0.05);
}

// Only a whole, finite, positive number overrides the default; anything
// else is an error that names the variable, never a silent fallback.
TEST(DefaultSimSeconds, EnvOverride) {
  unsetenv("TAPEJUKE_SIM_SECONDS");
  EXPECT_DOUBLE_EQ(DefaultSimSeconds().value(), 2'000'000.0);
  setenv("TAPEJUKE_SIM_SECONDS", "500000", 1);
  EXPECT_DOUBLE_EQ(DefaultSimSeconds().value(), 500'000.0);
  setenv("TAPEJUKE_SIM_SECONDS", "2.5e3", 1);
  EXPECT_DOUBLE_EQ(DefaultSimSeconds().value(), 2'500.0);
  for (const char* bad :
       {"garbage", "abc", "2000x", "", "inf", "nan", "1e999", "0", "-5"}) {
    setenv("TAPEJUKE_SIM_SECONDS", bad, 1);
    const StatusOr<double> seconds = DefaultSimSeconds();
    ASSERT_FALSE(seconds.ok()) << "'" << bad << "'";
    EXPECT_EQ(seconds.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(seconds.status().message().find("TAPEJUKE_SIM_SECONDS"),
              std::string::npos);
  }
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
