// Simulation metrics: throughput, response delay, and activity accounting.
//
// All statistics exclude a configurable warm-up period so steady-state
// numbers are not polluted by the empty-system start (the paper's runs are
// long enough — 10M simulated seconds — that warm-up hardly matters there;
// ours are shorter, so we trim it explicitly).

#ifndef TAPEJUKE_SIM_METRICS_H_
#define TAPEJUKE_SIM_METRICS_H_

#include <cstdint>
#include <vector>

#include "obs/time_in_state.h"
#include "obs/timeline.h"
#include "sim/fault_model.h"
#include "sim/lifecycle.h"
#include "sim/repair.h"
#include "sim/write_path.h"
#include "tape/jukebox.h"
#include "util/stats.h"

namespace tapejuke {

/// Per-tenant-class steady-state results (overload runs only). Counts are
/// post-warm-up, like the top-level completed_requests.
struct TenantClassResult {
  int64_t completed = 0;
  int64_t expired = 0;
  int64_t shed = 0;
  double mean_delay_seconds = 0;
  double p99_delay_seconds = 0;
  /// Post-warm-up completions per minute. Expired and shed requests are
  /// excluded — this is goodput, the number the SLO protects.
  double goodput_per_minute = 0;
};

/// Steady-state results of one simulation run.
struct SimulationResult {
  double simulated_seconds = 0;  ///< total, including warm-up
  double measured_seconds = 0;   ///< the post-warm-up window
  int64_t completed_requests = 0;

  double throughput_mb_per_s = 0;
  double throughput_kb_per_s = 0;  ///< the unit of paper Fig. 3
  double requests_per_minute = 0;

  double mean_delay_seconds = 0;
  double mean_delay_minutes = 0;
  double delay_stddev_seconds = 0;
  double p50_delay_seconds = 0;
  double p95_delay_seconds = 0;
  double p99_delay_seconds = 0;
  double max_delay_seconds = 0;
  /// Completions whose delay exceeded the histogram range (200000 s). When
  /// a quantile lands in this mass it reports max_delay_seconds instead of
  /// saturating at the histogram upper bound; a nonzero count flags that
  /// the p50/p95/p99 interpolation no longer resolves the far tail.
  int64_t delay_hist_overflow = 0;

  /// Time-averaged number of outstanding requests (arrived, not complete).
  double mean_outstanding = 0;

  /// Jukebox activity during the measurement window.
  JukeboxCounters counters;
  double tape_switches_per_hour = 0;
  /// Fraction of busy time spent transferring data (vs positioning).
  double transfer_utilization = 0;
  /// Whole-window utilization: drive-busy seconds / (measured seconds x
  /// drive count), from the time-in-state accounting. 0 for runs that do
  /// not collect it (farm aggregation).
  double drive_utilization = 0;
  /// Per-drive seconds in each activity over the measurement window
  /// (obs::DriveActivity order). Each drive's Total() equals
  /// measured_seconds, TJ_CHECKed in Finalize. Empty when not collected.
  std::vector<obs::DriveTimeInState> time_in_state;

  /// Fault injection. The fields below are populated (and serialized) only
  /// when the run had fault injection enabled; `fault_injection` stays
  /// false otherwise so fault-free results are bit-identical to builds
  /// without the fault subsystem.
  bool fault_injection = false;
  /// Whole-run request conservation (not warm-up trimmed):
  /// completed_total + failed_requests + outstanding_at_end ==
  /// issued_requests in every run, fault injection or not.
  int64_t issued_requests = 0;
  int64_t completed_total = 0;
  /// Requests completed with an error because every replica of their block
  /// was lost to permanent media errors.
  int64_t failed_requests = 0;
  int64_t outstanding_at_end = 0;
  /// completed_total / (completed_total + failed_requests); 1.0 when
  /// nothing failed.
  double availability = 1.0;
  /// Live catalog replicas at end of run / total replicas (1.0 when no
  /// permanent error ever masked a replica, or without fault injection).
  double live_replica_fraction = 1.0;
  FaultStats faults;

  /// Scrub/repair. Populated (and serialized) only when the run had the
  /// repair subsystem enabled.
  bool repair_enabled = false;
  RepairStats repair;

  /// Overload protection. Populated (and serialized) only when the run
  /// used tenant classes, deadlines, or admission control; stays false
  /// otherwise so overload-free results are byte-identical to builds
  /// without the subsystem. The conservation identity extends to
  /// completed_total + failed + expired + shed + outstanding == issued.
  bool overload_enabled = false;
  int64_t expired_requests = 0;  ///< whole-run, not warm-up trimmed
  int64_t shed_requests = 0;     ///< whole-run, not warm-up trimmed
  std::vector<TenantClassResult> tenant_classes;

  // Not written to results JSON:
  /// Major reschedules that found work only on tapes other drives held
  /// (the drive waited despite queued work); always 0 with one drive.
  int64_t claim_conflicts = 0;
  /// Empty unless the run set SimulationConfig::writes / ::lifecycle.
  WritePathStats write_path;
  LifecycleStats lifecycle;
};

/// Accumulates completions and outstanding-population area during a run.
class MetricsCollector {
 public:
  /// Statistics cover completions at times > `warmup_seconds`.
  MetricsCollector(double warmup_seconds, int64_t block_size_mb);

  /// Arms per-tenant-class accounting (overload runs). Call once, before
  /// any event; completions/expiries/sheds then also accrue to the class
  /// passed via their `tenant` argument.
  void ConfigureClasses(int num_classes);

  /// Registers this collector's probes into a timeline registry: the
  /// whole-run conservation counters (issued/completed/failed/expired/
  /// shed), the outstanding gauge, a windowed whole-run delay histogram,
  /// and — when classes are configured — per-class counters (post-warm-up,
  /// like the end-of-run TenantClassResult counts) plus per-class delay
  /// windows. Call after ConfigureClasses and before the first sample.
  void AttachTimeline(obs::StatRegistry* registry);

  /// Records a request arrival at time `now`.
  void OnArrival(double now);

  /// Records a completed request that arrived at `arrival` and finished at
  /// `now`.
  void OnCompletion(double arrival, double now, int tenant = 0);

  /// Records a request that completed with an error at `now` (every
  /// replica of its block was lost). Excluded from throughput and delay
  /// statistics; counted in the whole-run conservation totals.
  void OnFailure(double arrival, double now);

  /// Records a queued request expiring at `now` (its deadline passed
  /// before service). Removed from the outstanding population; excluded
  /// from throughput/delay statistics; counted as expired in the extended
  /// conservation identity.
  void OnExpired(double arrival, double now, int tenant = 0);

  /// Records an arrival refused by admission control at `now`. The
  /// request never joins the outstanding population: it counts as issued
  /// and shed, keeping the extended conservation identity exact.
  void OnShed(double now, int tenant = 0);

  /// Whole-run totals (not warm-up trimmed), for conservation accounting.
  int64_t issued_total() const { return issued_total_; }
  int64_t completed_total() const { return completed_total_; }
  int64_t failed_total() const { return failed_total_; }
  int64_t expired_total() const { return expired_total_; }
  int64_t shed_total() const { return shed_total_; }
  int64_t outstanding_now() const { return outstanding_; }

  /// Snapshot of the jukebox counters at the warm-up boundary; call once
  /// when the clock first passes the warm-up time.
  void MarkWarmupBoundary(const JukeboxCounters& counters);

  /// Extends the outstanding-population integral to `now` without any
  /// arrival or completion (used to close a run's area at its final clock
  /// before merging collectors that stopped at different times).
  void AccumulateTo(double now) { AccumulateOutstandingArea(now); }

  /// The post-warm-up integral of outstanding requests dt accumulated so
  /// far (divide by the measurement window for the time-averaged mean).
  double outstanding_area() const { return outstanding_area_; }

  /// Folds another collector into this one: delay statistics, histograms,
  /// whole-run totals, outstanding areas, and warm-up counter snapshots
  /// all sum. Both collectors must share the warm-up boundary; a collector
  /// whose run never reached it contributes a zero counter baseline. Merge
  /// order is fixed by the caller, so merged floating-point results are
  /// deterministic.
  void Merge(const MetricsCollector& other);

  /// Finalizes the run at `end_time` with the final jukebox counters.
  /// When `accounting` is non-null its per-drive totals are folded into
  /// the result (time_in_state, drive_utilization) after TJ_CHECKing the
  /// per-drive identity sum(states) == measured_seconds; the caller must
  /// have called accounting->FinishAt(end_time) first.
  SimulationResult Finalize(
      double end_time, const JukeboxCounters& final_counters,
      const obs::TimeInStateAccounting* accounting = nullptr) const;

  double warmup_seconds() const { return warmup_seconds_; }

 private:
  /// Per-tenant-class accumulators (post-warm-up, like completed_).
  struct ClassAccum {
    ClassAccum(double lo, double hi, int buckets)
        : histogram(lo, hi, buckets) {}
    RunningStat delay;
    Histogram histogram;
    int64_t completed = 0;
    int64_t expired = 0;
    int64_t shed = 0;
  };

  void AccumulateOutstandingArea(double now);

  double warmup_seconds_;
  int64_t block_size_mb_;

  RunningStat delay_;
  Histogram delay_histogram_;
  int64_t completed_ = 0;
  std::vector<ClassAccum> classes_;

  int64_t issued_total_ = 0;
  int64_t completed_total_ = 0;
  int64_t failed_total_ = 0;
  int64_t expired_total_ = 0;
  int64_t shed_total_ = 0;

  int64_t outstanding_ = 0;
  double last_transition_ = 0;
  double outstanding_area_ = 0;  ///< integral of outstanding dt post warm-up

  bool warmup_marked_ = false;
  JukeboxCounters warmup_counters_;

  /// Non-owning timeline windows (owned by the sampler's StatRegistry),
  /// fed in OnCompletion regardless of warm-up — the timeline shows the
  /// whole run. Copies of a collector (the farm snapshots per-box
  /// collectors into its BoxOutput) carry stale pointers, but copies
  /// never observe events and Merge/Finalize never touch the windows, so
  /// the pointers are never dereferenced after the source run ends.
  obs::WindowStat* timeline_delay_ = nullptr;
  std::vector<obs::WindowStat*> timeline_class_delay_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_METRICS_H_
