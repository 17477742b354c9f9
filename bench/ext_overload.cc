// Extension bench: overload protection — request deadlines, SLO-aware
// admission control, and graceful degradation through and past saturation.
//
// The paper's open-model curves (Figures 4/8) stop at the saturation knee
// (~50 s mean interarrival for the base configuration) because beyond it
// the queue grows without bound and steady-state delay is undefined. This
// bench drives the simulator *through* the knee with a three-class tenant
// mix and compares what each admission policy preserves:
//
//  (a) policy comparison — none / static-cap / adaptive across light load
//      to 2x saturation. `none` lets every class's delay blow up;
//      `static-cap` bounds the queue but shares the pain evenly; `adaptive`
//      sheds best-effort classes and holds the protected class's p99 SLO.
//  (b) bursty arrivals — the same policies under correlated arrival bursts,
//      where a static cap admits whole bursts before reacting.
//  (c) deadlines — per-class queueing deadlines with no admission control:
//      past-deadline requests expire instead of occupying the queue.
//
// The acceptance checks (adaptive admission holds the protected class's
// p99 SLO at 2x saturation while `none` blows it, deadline expiry fires,
// and an overload farm is byte-identical at 1 vs 4 threads) are gtests:
// tests/overload_test.cc and Farm.BitIdenticalAcrossThreadCountsOverload.

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/experiment.h"

namespace tapejuke {
namespace bench {
namespace {

/// The protected class's p99 SLO, seconds (~4 hours). Batch tape service
/// has an intrinsically heavy delay tail — even at light load (240 s mean
/// interarrival) the base configuration's p99 sits near 6000 s, because a
/// cold block on a rarely-visited tape waits out multiple sweep rotations.
/// Four hours is what this hardware can actually promise a premium class:
/// comfortably above the intrinsic tail, and far below the 70000+ s an
/// unprotected queue reaches at 2x saturation.
constexpr double kProtectedSlo = 15000.0;

/// Three-class mix: a small protected (premium) class, a standard class
/// with a loose SLO, and best-effort bulk traffic with none. The premium
/// class is 10% of traffic so that even at 2x overall saturation its own
/// load (~250 s effective interarrival at the 25 s point) sits well inside
/// the knee — an SLO no admission policy could meet is not worth studying.
void AddTenantMix(WorkloadConfig* workload, bool with_deadlines) {
  TenantClassConfig premium;
  premium.weight = 0.1;
  premium.p99_slo_seconds = kProtectedSlo;
  TenantClassConfig standard;
  standard.weight = 0.3;
  standard.p99_slo_seconds = 3.0 * kProtectedSlo;
  TenantClassConfig besteffort;
  besteffort.weight = 0.6;
  if (with_deadlines) {
    premium.deadline_seconds = kProtectedSlo;
    standard.deadline_seconds = 2.0 * kProtectedSlo;
  }
  workload->tenant_classes = {premium, standard, besteffort};
}

/// Correlated bursts: every ~20000 s a burst of ~30 extra arrivals lands
/// within a ~10 minute window.
void AddBursts(WorkloadConfig* workload) {
  workload->burst_interval_seconds = 20000;
  workload->burst_size = 30;
  workload->burst_spread_seconds = 600;
}

AdmissionConfig MakePolicy(const std::string& name) {
  AdmissionConfig admission;
  if (name == "static-cap") {
    admission.policy = AdmissionPolicy::kStaticCap;
    admission.queue_cap = 400;
  } else if (name == "adaptive") {
    admission.policy = AdmissionPolicy::kAdaptive;
  }
  return admission;
}

ExperimentConfig BasePoint(const BenchOptions& options, double gap) {
  ExperimentConfig config = PaperBaseConfig(options);
  config.sim.workload.model = QueuingModel::kOpen;
  config.sim.workload.mean_interarrival_seconds = gap;
  AddTenantMix(&config.sim.workload, /*with_deadlines=*/false);
  return config;
}

/// Interarrival grid spanning light load (240 s) through the saturation
/// knee (~50 s) to 2x overload (25 s).
std::vector<double> OverloadGaps(const BenchOptions& options) {
  if (options.quick) return {240, 25};
  return {240, 90, 60, 30, 25};
}

const TenantClassResult& Class(const SimulationResult& result, size_t i) {
  TJ_CHECK_LT(i, result.tenant_classes.size());
  return result.tenant_classes[i];
}

void AddPolicyRow(Table* table, const std::string& policy, double gap,
                  const SimulationResult& r) {
  table->AddRow({policy, gap, r.shed_requests,
                 Class(r, 0).p99_delay_seconds,
                 Class(r, 0).goodput_per_minute,
                 Class(r, 1).p99_delay_seconds,
                 Class(r, 2).goodput_per_minute, r.requests_per_minute,
                 r.mean_outstanding});
}

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: overload protection (deadlines, admission "
                     "control, degradation past saturation)",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_overload", options);

  const std::vector<double> gaps = OverloadGaps(options);
  const std::vector<std::string> policies = {"none", "static-cap",
                                             "adaptive"};

  // (a) Policy comparison across the load sweep.
  std::vector<GridPoint> policy_grid;
  for (const std::string& policy : policies) {
    for (const double gap : gaps) {
      ExperimentConfig config = BasePoint(options, gap);
      config.sim.admission = MakePolicy(policy);
      policy_grid.push_back(GridPoint{policy, gap, config});
    }
  }
  const std::vector<ExperimentResult> policy_results =
      ctx.RunGrid(policy_grid);
  Table policy_table({"policy", "interarrival_s", "shed", "c0_p99_s",
                      "c0_goodput_min", "c1_p99_s", "c2_goodput_min",
                      "req_min", "mean_outstanding"});
  for (size_t i = 0; i < policy_grid.size(); ++i) {
    AddPolicyRow(&policy_table, policy_grid[i].series, policy_grid[i].load,
                 policy_results[i].sim);
  }
  ctx.Emit(
      "admission policies through saturation (tenant mix 10/30/60, "
      "protected p99 SLO 15000 s)",
      &policy_table);

  // (b) The same policies under correlated arrival bursts at and past the
  // knee.
  const std::vector<double> burst_gaps =
      options.quick ? std::vector<double>{30} : std::vector<double>{60, 30};
  std::vector<GridPoint> burst_grid;
  for (const std::string& policy : policies) {
    for (const double gap : burst_gaps) {
      ExperimentConfig config = BasePoint(options, gap);
      AddBursts(&config.sim.workload);
      config.sim.admission = MakePolicy(policy);
      burst_grid.push_back(GridPoint{policy + "/bursty", gap, config});
    }
  }
  const std::vector<ExperimentResult> burst_results =
      ctx.RunGrid(burst_grid);
  Table burst_table({"policy", "interarrival_s", "shed", "c0_p99_s",
                     "c0_goodput_min", "c1_p99_s", "c2_goodput_min",
                     "req_min", "mean_outstanding"});
  for (size_t i = 0; i < burst_grid.size(); ++i) {
    AddPolicyRow(&burst_table, burst_grid[i].series, burst_grid[i].load,
                 burst_results[i].sim);
  }
  ctx.Emit("admission policies under correlated bursts (~30 extra / 20000 s)",
           &burst_table);

  // (c) Queueing deadlines with no admission control: expiry replaces
  // unbounded queueing for the deadlined classes.
  std::vector<GridPoint> deadline_grid;
  for (const double gap : gaps) {
    ExperimentConfig config = BasePoint(options, gap);
    AddTenantMix(&config.sim.workload, /*with_deadlines=*/true);
    deadline_grid.push_back(GridPoint{"deadlines", gap, config});
  }
  const std::vector<ExperimentResult> deadline_results =
      ctx.RunGrid(deadline_grid);
  Table deadline_table({"interarrival_s", "expired", "c0_expired",
                        "c0_p99_s", "c0_goodput_min", "c1_expired",
                        "c2_goodput_min", "req_min"});
  for (size_t i = 0; i < deadline_grid.size(); ++i) {
    const SimulationResult& r = deadline_results[i].sim;
    deadline_table.AddRow({deadline_grid[i].load, r.expired_requests,
                           Class(r, 0).expired,
                           Class(r, 0).p99_delay_seconds,
                           Class(r, 0).goodput_per_minute,
                           Class(r, 1).expired,
                           Class(r, 2).goodput_per_minute,
                           r.requests_per_minute});
  }
  ctx.Emit(
      "per-class queueing deadlines, no admission (premium 15000 s, "
      "standard 30000 s)",
      &deadline_table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
