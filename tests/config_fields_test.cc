// Tests for the config field tables (util/fields.h): every double row
// refuses a value just outside each finite end of its domain, and the
// table-bound flags refuse integers their member cannot hold and unknown
// enum names.

#include "util/fields.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/analytic.h"
#include "core/experiment.h"
#include "sim/lifecycle.h"
#include "tape/serpentine.h"

namespace tapejuke {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Sets each double row of `config` in turn just outside each finite end of
// its domain (an open end itself, else the next double past a closed end)
// and expects `validate` to refuse the result.
template <typename T>
void ExpectEveryEndRefused(const T& config,
                           const std::function<Status(const T&)>& validate) {
  ASSERT_TRUE(validate(config).ok()) << validate(config);
  int refused = 0;
  for (size_t i = 0; i < FieldsOf(config).size(); ++i) {
    for (const bool upper : {false, true}) {
      T copy = config;
      const Field row = copy.Fields()[i];
      double* const* member = std::get_if<double*>(&row.ref);
      const double end = upper ? row.domain.hi : row.domain.lo;
      if (member == nullptr || !std::isfinite(end)) continue;
      const bool open = upper ? row.domain.hi_open : row.domain.lo_open;
      **member = open ? end : std::nextafter(end, upper ? kInf : -kInf);
      EXPECT_EQ(validate(copy).code(), StatusCode::kInvalidArgument)
          << row.key << " = " << **member;
      ++refused;
    }
  }
  EXPECT_GT(refused, 0);
}

template <typename T>
Status Validate(const T& config) {
  return config.Validate();
}

TEST(FieldTables, EveryDoubleRowRefusesJustOutsideEachEnd) {
  ExpectEveryEndRefused<TimingParams>(TimingParams{}, Validate<TimingParams>);
  ExpectEveryEndRefused<JukeboxConfig>(JukeboxConfig{},
                                       Validate<JukeboxConfig>);
  ExpectEveryEndRefused<SerpentineParams>(SerpentineParams{},
                                          Validate<SerpentineParams>);
  ExpectEveryEndRefused<LayoutSpec>(
      LayoutSpec{}, [](const LayoutSpec& layout) { return layout.Validate(10); });

  WorkloadConfig workload;
  workload.model = QueuingModel::kOpen;
  workload.burst_interval_seconds = 5'000;
  workload.burst_size = 4;
  workload.burst_spread_seconds = 100;
  ExpectEveryEndRefused<WorkloadConfig>(workload, Validate<WorkloadConfig>);
  TenantClassConfig tenant;
  tenant.deadline_seconds = 60;
  tenant.p99_slo_seconds = 600;
  ExpectEveryEndRefused<TenantClassConfig>(
      tenant, [&workload](const TenantClassConfig& cls) {
        WorkloadConfig mix = workload;
        mix.tenant_classes = {cls, TenantClassConfig{}};
        return mix.Validate();
      });

  FaultConfig faults;
  faults.drive_mtbf_seconds = 50'000;
  faults.drive_mttr_seconds = 600;
  ExpectEveryEndRefused<FaultConfig>(faults, Validate<FaultConfig>);
  ExpectEveryEndRefused<RepairConfig>(RepairConfig{}, Validate<RepairConfig>);
  SimulationConfig sim;
  sim.duration_seconds = 10'000;
  sim.warmup_seconds = 1'000;
  ExpectEveryEndRefused<SimulationConfig>(sim, Validate<SimulationConfig>);
  ExpectEveryEndRefused<LifecycleConfig>(LifecycleConfig{},
                                         Validate<LifecycleConfig>);
  ExpectEveryEndRefused<AnalyticInputs>(AnalyticInputs{},
                                        Validate<AnalyticInputs>);
}

// The weight bound keeps the sum of 16 weights finite; the burst-size bound
// keeps a burst's arrival count inside int64_t.
TEST(FieldTables, BoundsKeepTheArithmeticFinite) {
  WorkloadConfig workload;
  workload.model = QueuingModel::kOpen;
  workload.tenant_classes.resize(2);
  workload.tenant_classes[0].weight = 1e308;
  workload.tenant_classes[1].weight = 1e308;
  EXPECT_EQ(workload.Validate().code(), StatusCode::kInvalidArgument);
  workload.tenant_classes.assign(16, TenantClassConfig{1e300, 0, 0});
  EXPECT_TRUE(workload.Validate().ok());

  workload.tenant_classes.clear();
  workload.burst_interval_seconds = 5'000;
  workload.burst_size = 1e15;
  EXPECT_TRUE(workload.Validate().ok());
  workload.burst_size = kInf;
  EXPECT_EQ(workload.Validate().code(), StatusCode::kInvalidArgument);
}

class FieldFlagsTest : public ::testing::Test {
 protected:
  // Parses `arg` through freshly bound flags of config_ and faults_.
  Status Parse(const std::string& arg) {
    FlagSet flags("test program");
    BindFlags(&flags, config_.jukebox.Fields());
    BindFlags(&flags, config_.layout.Fields());
    BindFlags(&flags, config_.sim.workload.Fields());
    BindFlags(&flags, faults_.Fields());
    std::string program = "prog";
    std::string value = arg;
    char* argv[] = {program.data(), value.data()};
    return flags.Parse(2, argv);
  }

  ExperimentConfig config_;
  FaultConfig faults_;
};

// Each of these used to be cast to the member's narrower type: 2^32 retries
// became 0 and -(2^32 - 1) became 1; 2^32 + 10 tapes became 10 and
// 2^32 + 2 replicas became 2.
TEST_F(FieldFlagsTest, IntegerOutsideTheRowsRangeIsRefused) {
  for (const char* arg :
       {"--fault-retries=4294967296", "--fault-retries=-4294967295",
        "--fault-retries=-1", "--tapes=4294967306", "--tapes=0",
        "--replicas=4294967298", "--queue=-1", "--seed=-1",
        "--seed=18446744073709551616", "--tapes=ten"}) {
    EXPECT_EQ(Parse(arg).code(), StatusCode::kInvalidArgument) << arg;
  }
  EXPECT_EQ(faults_.max_read_retries, 3);
  EXPECT_EQ(config_.jukebox.num_tapes, 10);
  EXPECT_EQ(config_.layout.num_replicas, 0);
  EXPECT_EQ(config_.sim.workload.seed, 1u);

  ASSERT_TRUE(Parse("--fault-retries=2147483647").ok());
  EXPECT_EQ(faults_.max_read_retries, 2147483647);
  ASSERT_TRUE(Parse("--seed=18446744073709551615").ok());
  EXPECT_EQ(config_.sim.workload.seed, UINT64_MAX);
}

TEST_F(FieldFlagsTest, DoubleOutsideTheDomainIsRefused) {
  for (const char* arg : {"--fault-transient-rate=1", "--ph=1.5", "--rh=-0.1",
                          "--fault-backoff-base=-1", "--interarrival=nan"}) {
    EXPECT_EQ(Parse(arg).code(), StatusCode::kInvalidArgument) << arg;
  }
  EXPECT_EQ(faults_.transient_read_error_prob, 0.0);
  ASSERT_TRUE(Parse("--fault-transient-rate=0.25").ok());
  EXPECT_EQ(faults_.transient_read_error_prob, 0.25);
}

TEST_F(FieldFlagsTest, UnknownEnumNameIsRefused) {
  const Status status = Parse("--layout=verticle");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("horizontal|vertical"), std::string::npos)
      << status;
  EXPECT_EQ(Parse("--queuing=opne").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(config_.layout.layout, HotLayout::kHorizontal);
  EXPECT_EQ(config_.sim.workload.model, QueuingModel::kClosed);

  ASSERT_TRUE(Parse("--layout=vertical").ok());
  ASSERT_TRUE(Parse("--queuing=open").ok());
  EXPECT_EQ(config_.layout.layout, HotLayout::kVertical);
  EXPECT_EQ(config_.sim.workload.model, QueuingModel::kOpen);
}

}  // namespace
}  // namespace tapejuke
