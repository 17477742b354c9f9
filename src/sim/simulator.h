// The jukebox simulator: drives a Scheduler through the paper's four-step
// service model (§2.2) under a closed- or open-queuing workload, on every
// drive of the jukebox. Each drive runs this cycle:
//
//   1. When the service list is empty, invoke the major rescheduler, which
//      picks a tape and builds the retrieval sweep from the pending list.
//   2. Switch to the selected tape if it is not already mounted.
//   3. Execute the service list entry by entry; requests arriving during
//      execution go to the incremental scheduler, which may insert them
//      into the running sweep or defer them. The head stays where the last
//      block finished; the next major reschedule decides about rewinds.
//   4. When nothing is pending, wait for an arrival (open model).
//
// One BackgroundWork producer (scrub/repair, write-path flushes, or the
// §4.8 replica fill) may add work right before step 1 and on the idle
// drive in step 4; its seconds are charged to the `background` state.
//
// With D drives (Jukebox::SetNumDrives; the paper's future work) the
// drives share the scheduler, the tapes and the robot arm. The drive whose
// next action is earliest acts first, ties to the lowest index; client
// events up to that time are delivered before it acts. A drive that finds
// no work it can take (every tape with work is loaded in another drive)
// waits until another drive acts or a client event arrives.
//
// Arrivals that occur while a locate/read/switch is in flight are delivered
// at their exact timestamps with the *committed head* — the head position
// the drive will have when the in-flight operation completes — so the
// incremental scheduler can only insert work that is still genuinely ahead.

#ifndef TAPEJUKE_SIM_SIMULATOR_H_
#define TAPEJUKE_SIM_SIMULATOR_H_

#include <optional>
#include <utility>
#include <vector>

#include "layout/catalog.h"
#include "obs/recorder.h"
#include "obs/time_in_state.h"
#include "sched/scheduler.h"
#include "sim/admission.h"
#include "sim/background.h"
#include "sim/event_queue.h"
#include "sim/fault_model.h"
#include "sim/metrics.h"
#include "sim/repair.h"
#include "sim/workload.h"
#include "tape/jukebox.h"
#include "util/flat_hash.h"
#include "util/status.h"

namespace tapejuke {

/// Run-level simulation parameters.
struct SimulationConfig {
  /// Simulated wall-clock length of the run, seconds. (The paper uses 10M
  /// seconds; 2M gives the same curve shapes with tight enough confidence.)
  double duration_seconds = 2'000'000;
  /// Leading window excluded from all statistics.
  double warmup_seconds = 100'000;
  WorkloadConfig workload;
  /// Fault injection (all rates zero by default: nothing is injected and
  /// the run is bit-identical to a fault-free build). Enabling any rate
  /// requires constructing the Simulator with a mutable Catalog.
  FaultConfig faults;
  /// Background scrub and repair (disabled by default). Requires fault
  /// injection — without faults there is nothing to scrub for or repair.
  RepairConfig repair;
  /// Admission control / load shedding (disabled by default: every arrival
  /// is admitted and output is byte-identical to a build without the
  /// overload subsystem). Open model only.
  AdmissionConfig admission;
  /// Observability (disabled by default; never serialized into results
  /// JSON). When enabled the simulator owns a TraceRecorder, feeds it
  /// drive state slices / request lifecycles / scheduler decisions, and
  /// writes the configured files at the end of Run.
  obs::TraceConfig obs;
  /// Time-series telemetry (disabled by default; never serialized into
  /// results JSON). When enabled the simulator owns a TimelineSampler,
  /// samples every registered stat on a fixed simulated-time cadence, and
  /// writes one JSONL timeline at the end of Run. Results JSON stays
  /// byte-identical with the timeline on or off.
  obs::TimelineConfig timeline;

  Status Validate() const;
};

/// Single-jukebox discrete-event simulator, for any number of drives.
class Simulator {
 public:
  /// All pointers must outlive the simulator. The jukebox must already hold
  /// the layout the catalog describes, and the drive count the scheduler
  /// was built for. This overload cannot mutate the catalog, so
  /// `config.faults` must be disabled (TJ_CHECK). A non-null `background`
  /// is the run's background-work producer (the write path's flushes, the
  /// §4.8 replica fill).
  Simulator(Jukebox* jukebox, const Catalog* catalog, Scheduler* scheduler,
            const SimulationConfig& config,
            BackgroundWork* background = nullptr);
  // repair_ and background_ point into the simulator itself.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Mutable-catalog overload: required when `config.faults` is enabled
  /// (permanent media errors mask replicas dead in the catalog).
  Simulator(Jukebox* jukebox, Catalog* catalog, Scheduler* scheduler,
            const SimulationConfig& config);

  /// Trace-replay constructor: arrivals come verbatim from `trace`
  /// (ascending arrival times; request ids are reassigned sequentially)
  /// instead of the configured arrival process. The workload model is
  /// treated as open queuing.
  Simulator(Jukebox* jukebox, const Catalog* catalog, Scheduler* scheduler,
            const SimulationConfig& config, std::vector<Request> trace);

  /// Runs the simulation to completion and returns steady-state metrics.
  /// Call at most once per Simulator instance.
  SimulationResult Run();

  /// Raw metrics collector, for callers that aggregate several runs into
  /// one result (the farm merges per-box collectors). Valid after Run.
  const MetricsCollector& metrics() const { return metrics_; }

  /// Buffered timeline rows/summary, for callers that merge per-box
  /// timelines (the farm). Null unless config.timeline is enabled; valid
  /// after Run.
  const obs::TimelineSampler* timeline() const {
    return timeline_.has_value() ? &*timeline_ : nullptr;
  }

  /// Major reschedules that found work only on tapes loaded in other
  /// drives (the drive waited despite queued work). Always 0 with one
  /// drive. Valid after Run.
  int64_t claim_conflicts() const { return claim_conflicts_; }

 private:
  /// Where a drive's cycle resumes when it next acts: the top (step 1, 3
  /// or 4 by the queue state), or the point a repair interval or a
  /// sweep-boundary flush interrupted.
  enum class Resume { kTop, kIdle, kBoundary, kReschedule, kRead };

  /// One drive's progress through the service cycle.
  struct DriveState {
    /// When the drive next acts (+infinity: only another drive's action
    /// can give it work).
    double ready_at = 0;
    Resume resume = Resume::kTop;
    /// The drive found no work it could take and is waiting.
    bool waiting = false;
    /// Next failure epoch (only with drive faults).
    double next_failure = 0;
    /// The read in flight, settled when the drive next acts.
    std::optional<ServiceEntry> in_flight;
    ReadOutcome outcome;
    /// The background quantum in flight masked replicas.
    bool masked = false;
    /// Time-in-state segments of the operation in flight, in temporal
    /// order as (activity, absolute end). Charged when it ends, so a run
    /// that stops mid-operation clips them at the final clock.
    std::vector<std::pair<obs::DriveActivity, double>> charges;
  };

  /// The public constructors' shared body; `mutable_catalog` is `catalog`
  /// or null.
  Simulator(Jukebox* jukebox, const Catalog* catalog,
            Catalog* mutable_catalog, Scheduler* scheduler,
            const SimulationConfig& config, BackgroundWork* background);

  /// Delivers every open-model arrival with timestamp <= `until` to the
  /// incremental scheduler, interleaved in time order with deadline-expiry
  /// events so the outstanding-population integral stays exact.
  void DeliverArrivalsUpTo(double until, Position committed_head);

  /// Pops every expiry event with timestamp <= `until` and evicts the
  /// queued requests whose deadline has passed. No-op (and no queue
  /// lookups) when no request can carry a deadline.
  void ProcessExpiriesUpTo(double until, Position committed_head);

  /// Completes `request` as expired at `now` and, in the closed model,
  /// lets the issuing process continue like any other settled request.
  void ExpireRequest(const Request& request, double now,
                     Position committed_head);

  /// Registers `request`'s deadline with the expiry queue (no-op when it
  /// has none).
  void TrackDeadline(const Request& request);

  /// Marks the metrics warm-up boundary the first time the clock passes it.
  void MaybeMarkWarmup();

  /// Delivers `request` (arrival already counted by the caller) to the
  /// scheduler, or fails it immediately when every replica of its block is
  /// dead. Returns true if the request entered the scheduler.
  bool DeliverOrFail(const Request& request, Position committed_head);

  /// Closed model: a process issues its next request at `now`, redrawing
  /// past blocks whose every replica is dead (each dead draw is counted as
  /// issued + failed, so conservation holds). Stops issuing when the whole
  /// archive is lost.
  void IssueClosedRequest(double now, Position committed_head);

  /// Completes `request` with an error (every replica of its block is
  /// dead) and, in the closed model, lets the issuing process continue.
  void FailRequest(const Request& request);

  /// Re-enqueues a request displaced by a fault onto a surviving replica,
  /// or fails it when none is left. Background requests route back to the
  /// repair manager instead.
  void Requeue(const Request& request);

  /// Evicts now-unservable queued requests: client requests fail, repair
  /// source reads are handed back to the repair manager.
  void EvictUnservable();

  /// Masks the media lost by a permanent error during the read of `entry`
  /// on the mounted tape and fails over every displaced request.
  void HandlePermanentError(const ServiceEntry& entry, bool whole_tape);

  /// Drive `d` acts at clock_ (client events up to it delivered): starts
  /// its next operation, or waits.
  void Act(size_t d);

  /// Drive `d`'s operation ended at clock_: charges its segments and
  /// settles its read or background quantum.
  void Finish(size_t d);

  /// Lazily processes a drive-failure epoch the clock has passed: starts
  /// an Exponential(MTTR) repair during which the drive is down (arrivals
  /// are still delivered), after which it resumes at `resume`. Returns
  /// false when the drive has not failed.
  bool BeginDriveRepair(size_t d, Resume resume);

  /// Step 4: background quanta on the idle drive, else a wait for the next
  /// client event.
  void BeginIdle(size_t d);

  /// Steps 1-2: major reschedule and the tape switch.
  void BeginSwitch(size_t d);

  /// Step 3: the next service-list entry.
  void BeginRead(size_t d);

  /// Settles the served drive's finished read of `entry`: completions, or
  /// failover after a permanent error.
  void CompleteRead(const ServiceEntry& entry, const ReadOutcome& outcome);

  /// Drive `d` waits, until `until` or until another drive acts.
  void Wait(size_t d, double until);

  /// The next arrival or think-time wake-up (+infinity when none).
  double NextClientEvent() const;

  /// Emits a "scheduled" trace instant for every request in the active
  /// sweep (called right after a major reschedule); no-op unless tracing.
  void TraceSweepContents(TapeId tape);

  /// Engages the timeline sampler and registers every probe (scheduler
  /// depths, admission state, repair backlog, replica health, metrics
  /// counters/windows, time-in-state accums). Must run last in every
  /// constructor, after the optional subsystems are engaged.
  void SetupTimeline();

  Jukebox* jukebox_;
  const Catalog* catalog_;
  /// Non-null only via the mutable-catalog constructor; required (and
  /// used) only when fault injection is enabled.
  Catalog* mutable_catalog_ = nullptr;
  Scheduler* scheduler_;
  SimulationConfig config_;
  WorkloadGenerator workload_;
  MetricsCollector metrics_;
  /// Always-on per-drive activity accounting (a few double adds per clock
  /// advance); feeds SimulationResult::time_in_state/drive_utilization.
  obs::TimeInStateAccounting accounting_;
  /// Engaged iff config_.obs.enabled().
  std::optional<obs::TraceRecorder> recorder_;
  /// Engaged iff config_.timeline.enabled(); probes registered by
  /// SetupTimeline at the end of construction.
  std::optional<obs::TimelineSampler> timeline_;

  /// Engaged iff config_.faults.enabled().
  std::optional<FaultModel> faults_;
  FaultStats fault_stats_;
  /// Engaged iff config_.repair.enabled() (which implies faults_).
  std::optional<RepairManager> repair_;
  /// The run's one background producer: &*repair_, the constructor's
  /// `background`, or null.
  BackgroundWork* background_ = nullptr;
  bool drive_faults_ = false;
  std::vector<DriveState> drives_;
  int64_t claim_conflicts_ = 0;
  bool closed_ = false;

  double clock_ = 0;
  double next_arrival_ = 0;  ///< open model only
  bool warmup_marked_ = false;
  bool ran_ = false;

  bool trace_mode_ = false;
  std::vector<Request> trace_;
  size_t trace_pos_ = 0;

  /// Closed model with think time: pending regeneration instants.
  EventQueue<char> thinking_;

  /// Overload protection. admission_ is engaged iff
  /// config_.admission.enabled(). Expiry events carry the request id;
  /// deadline_live_ filters events whose request already settled (the
  /// calendar queue has no random deletion). deadlines_possible_ gates the
  /// whole machinery so deadline-free runs make no extra queue operations.
  std::optional<AdmissionController> admission_;
  EventQueue<RequestId> expiries_;
  FlatSet<RequestId> deadline_live_;
  bool deadlines_possible_ = false;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_SIMULATOR_H_
