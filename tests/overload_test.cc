// Overload-subsystem tests above the unit level: arrival shaping
// (diurnal modulation, correlated bursts) and tenant-mix determinism,
// the retry-backoff draw discipline, the extended conservation identity
// under deadlines + admission control, and the results-JSON gating that
// keeps overload-free documents byte-identical to pre-overload builds.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/results_io.h"
#include "sim/fault_model.h"
#include "sim/workload.h"
#include "test_util.h"

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

WorkloadConfig OpenWorkload(double gap, uint64_t seed) {
  WorkloadConfig config;
  config.model = QueuingModel::kOpen;
  config.mean_interarrival_seconds = gap;
  config.seed = seed;
  return config;
}

void AddMix(WorkloadConfig* config, bool with_deadlines) {
  TenantClassConfig premium;
  premium.weight = 0.2;
  premium.p99_slo_seconds = 2000;
  if (with_deadlines) premium.deadline_seconds = 3000;
  TenantClassConfig standard;
  standard.weight = 0.3;
  if (with_deadlines) standard.deadline_seconds = 9000;
  TenantClassConfig besteffort;
  besteffort.weight = 0.5;
  config->tenant_classes = {premium, standard, besteffort};
}

// -- arrival shaping ---------------------------------------------------------

TEST(ArrivalShaping, GapMatchesPlainInterarrivalWhenOff) {
  Rig rig;
  WorkloadGenerator shaped(&*rig.catalog, OpenWorkload(60, 7));
  WorkloadGenerator plain(&*rig.catalog, OpenWorkload(60, 7));
  double now = 0;
  for (int i = 0; i < 2000; ++i) {
    const double gap = shaped.NextArrivalGap(now);
    EXPECT_DOUBLE_EQ(gap, plain.NextInterarrival()) << "draw " << i;
    now += gap;
  }
}

TEST(ArrivalShaping, TenantMixDoesNotPerturbBlocksOrTiming) {
  Rig rig;
  WorkloadConfig mixed = OpenWorkload(60, 11);
  AddMix(&mixed, /*with_deadlines=*/true);
  WorkloadGenerator with_mix(&*rig.catalog, mixed);
  WorkloadGenerator without(&*rig.catalog, OpenWorkload(60, 11));
  double now = 0;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_DOUBLE_EQ(with_mix.NextArrivalGap(now), without.NextInterarrival())
        << "draw " << i;
    const Request a = without.NextRequest(now);
    const Request b = with_mix.NextRequest(now);
    // The block / id sequence comes from the base stream and must be
    // untouched by the tenant draw (dedicated overload stream).
    EXPECT_EQ(a.block, b.block) << "draw " << i;
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.tenant, 0);
    EXPECT_DOUBLE_EQ(a.deadline, 0.0);
    ASSERT_LT(b.tenant, 3) << "draw " << i;
    const double cls_deadline =
        mixed.tenant_classes[b.tenant].deadline_seconds;
    if (cls_deadline > 0) {
      EXPECT_DOUBLE_EQ(b.deadline, now + cls_deadline) << "draw " << i;
    } else {
      EXPECT_DOUBLE_EQ(b.deadline, 0.0) << "draw " << i;
    }
    now += 60;
  }
}

TEST(ArrivalShaping, DiurnalModulationShiftsArrivalsIntoThePeak) {
  Rig rig;
  WorkloadConfig config = OpenWorkload(10, 5);
  config.diurnal_amplitude = 0.8;
  config.diurnal_period_seconds = 10'000;
  WorkloadGenerator generator(&*rig.catalog, config);
  int first_half = 0;
  int second_half = 0;
  double now = 0;
  while (true) {
    now += generator.NextArrivalGap(now);
    if (now >= config.diurnal_period_seconds) break;
    if (now < config.diurnal_period_seconds / 2) {
      ++first_half;  // sin > 0: rate above the mean
    } else {
      ++second_half;  // sin < 0: rate below the mean
    }
  }
  EXPECT_GT(first_half, second_half * 3 / 2)
      << first_half << " peak vs " << second_half << " trough arrivals";
}

TEST(ArrivalShaping, BurstsAddArrivalsAndStayDeterministic) {
  Rig rig;
  WorkloadConfig config = OpenWorkload(50, 13);
  config.burst_interval_seconds = 2000;
  config.burst_size = 10;
  config.burst_spread_seconds = 100;
  const double horizon = 50'000;
  auto count = [&](const WorkloadConfig& wc, std::vector<double>* gaps) {
    WorkloadGenerator generator(&*rig.catalog, wc);
    int n = 0;
    double now = 0;
    while (true) {
      const double gap = generator.NextArrivalGap(now);
      if (gaps != nullptr) gaps->push_back(gap);
      now += gap;
      if (now >= horizon) return n;
      ++n;
    }
  };
  std::vector<double> gaps_a;
  std::vector<double> gaps_b;
  const int bursty = count(config, &gaps_a);
  EXPECT_EQ(count(config, &gaps_b), bursty);
  EXPECT_EQ(gaps_a, gaps_b) << "burst process not deterministic";
  const int plain = count(OpenWorkload(50, 13), nullptr);
  // ~25 bursts of >= 1 extra arrival each on top of ~1000 base arrivals.
  EXPECT_GT(bursty, plain + 20);
}

// -- retry backoff -----------------------------------------------------------

TEST(RetryBackoff, ZeroBaseDrawsNothingAndReturnsZero) {
  FaultConfig config;
  config.drive_mtbf_seconds = 10'000;
  config.drive_mttr_seconds = 1000;
  FaultModel with_calls(config, /*workload_seed=*/3);
  FaultModel control(config, /*workload_seed=*/3);
  EXPECT_EQ(with_calls.NextRetryBackoff(0), 0.0);
  EXPECT_EQ(with_calls.NextRetryBackoff(7), 0.0);
  // The disabled path must not consume RNG: the streams stay in lockstep.
  EXPECT_DOUBLE_EQ(with_calls.NextRepairTime(), control.NextRepairTime());
}

TEST(RetryBackoff, DoublesWithAttemptAndCapsAtMax) {
  FaultConfig config;
  config.retry_backoff_base_seconds = 10;
  config.retry_backoff_max_seconds = 80;
  FaultModel model(config, 3);
  // Jitter keeps each wait in [w/2, w] for w = min(base * 2^attempt, max).
  for (int trial = 0; trial < 50; ++trial) {
    const double first = model.NextRetryBackoff(0);
    EXPECT_GE(first, 5.0);
    EXPECT_LE(first, 10.0);
    const double second = model.NextRetryBackoff(1);
    EXPECT_GE(second, 10.0);
    EXPECT_LE(second, 20.0);
    const double third = model.NextRetryBackoff(3);
    EXPECT_GE(third, 40.0);
    EXPECT_LE(third, 80.0);
    // Far past the cap (including exponents that would overflow a shift).
    const double capped = model.NextRetryBackoff(200);
    EXPECT_GE(capped, 40.0);
    EXPECT_LE(capped, 80.0);
  }
}

TEST(RetryBackoff, DeterministicPerSeed) {
  FaultConfig config;
  config.retry_backoff_base_seconds = 5;
  config.retry_backoff_max_seconds = 60;
  FaultModel a(config, 9);
  FaultModel b(config, 9);
  for (int attempt = 0; attempt < 20; ++attempt) {
    EXPECT_DOUBLE_EQ(a.NextRetryBackoff(attempt % 6),
                     b.NextRetryBackoff(attempt % 6));
  }
}

// -- conservation + JSON gating ---------------------------------------------

SimulationConfig OverloadSim() {
  SimulationConfig sim;
  sim.duration_seconds = 150'000;
  sim.warmup_seconds = 15'000;
  sim.workload = OpenWorkload(/*gap=*/20, /*seed=*/21);
  AddMix(&sim.workload, /*with_deadlines=*/true);
  sim.admission.policy = AdmissionPolicy::kAdaptive;
  return sim;
}

TEST(OverloadConservation, HoldsWithDeadlinesAndAdmission) {
  const SimulationResult result = DriveRig(2).Run(OverloadSim());
  ASSERT_TRUE(result.overload_enabled);
  // Saturated open queue with short deadlines: both exits must fire.
  EXPECT_GT(result.expired_requests, 0);
  EXPECT_GT(result.shed_requests, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.expired_requests + result.shed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  ASSERT_EQ(result.tenant_classes.size(), 3u);
  int64_t class_completed = 0;
  for (const TenantClassResult& cls : result.tenant_classes) {
    class_completed += cls.completed;
  }
  EXPECT_EQ(class_completed, result.completed_requests);
}

TEST(OverloadConservation, DeterministicAcrossRuns) {
  auto run = []() { return DriveRig(2).Run(OverloadSim()); };
  const SimulationResult a = run();
  const SimulationResult b = run();
  EXPECT_EQ(a.completed_requests, b.completed_requests);
  EXPECT_EQ(a.expired_requests, b.expired_requests);
  EXPECT_EQ(a.shed_requests, b.shed_requests);
  EXPECT_DOUBLE_EQ(a.mean_delay_seconds, b.mean_delay_seconds);
}

std::string ToJson(const SimulationResult& result) {
  std::ostringstream out;
  JsonWriter w(&out);
  WriteJson(&w, result);
  return out.str();
}

TEST(OverloadJson, GatedOffForOverloadFreeRuns) {
  SimulationConfig sim;
  sim.duration_seconds = 60'000;
  sim.warmup_seconds = 6'000;
  sim.workload.model = QueuingModel::kClosed;
  sim.workload.queue_length = 20;
  const std::string json = ToJson(DriveRig(2).Run(sim));
  // No overload knob was set, so none of the new keys may appear: the
  // document must stay byte-identical to pre-overload builds.
  EXPECT_EQ(json.find("expired_requests"), std::string::npos);
  EXPECT_EQ(json.find("shed_requests"), std::string::npos);
  EXPECT_EQ(json.find("tenant_classes"), std::string::npos);

  std::ostringstream out;
  JsonWriter w(&out);
  WriteJson(&w, sim);
  EXPECT_EQ(out.str().find("admission"), std::string::npos);
}

TEST(OverloadJson, EmittedForOverloadRuns) {
  const SimulationConfig sim = OverloadSim();
  const std::string json = ToJson(DriveRig(2).Run(sim));
  EXPECT_NE(json.find("\"expired_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"shed_requests\""), std::string::npos);
  EXPECT_NE(json.find("\"tenant_classes\""), std::string::npos);

  std::ostringstream out;
  JsonWriter w(&out);
  WriteJson(&w, sim);
  EXPECT_NE(out.str().find("\"admission\""), std::string::npos);
  EXPECT_NE(out.str().find("\"adaptive\""), std::string::npos);
}

}  // namespace
}  // namespace tapejuke
