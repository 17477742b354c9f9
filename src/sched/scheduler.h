// Scheduler interface (paper §2.2 service model).
//
// A scheduling algorithm is a *major rescheduler* that runs at tape-switch
// time (whenever the service list is empty): it chooses the next tape and
// builds a retrieval sweep from the pending list; plus an *incremental
// scheduler* that handles requests arriving during sweep execution, either
// inserting them into the running sweep or deferring them to the pending
// list. The simulator drives this interface through the four-step service
// cycle.
//
// A multi-drive jukebox keeps one scheduler with one sweep per drive. Every
// call acts for the jukebox's served drive (Jukebox::Serve): the major
// rescheduler builds that drive's sweep and skips tapes loaded in another
// drive (the tape-claim check), and PopNext pops from it.

#ifndef TAPEJUKE_SCHED_SCHEDULER_H_
#define TAPEJUKE_SCHED_SCHEDULER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "layout/catalog.h"
#include "obs/decision.h"
#include "sched/request.h"
#include "sched/schedule_cost.h"
#include "sched/sweep.h"
#include "sched/sweep_builder.h"
#include "tape/jukebox.h"
#include "tape/types.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

/// Tape selection policy applied by the major rescheduler (paper §3.1).
enum class TapePolicy {
  kRoundRobin,          ///< next tape in jukebox order with pending work
  kMaxRequests,         ///< tape with the most satisfiable pending requests
  kMaxBandwidth,        ///< tape with the highest effective bandwidth
  kOldestMaxRequests,   ///< serves the oldest request; ties by max requests
  kOldestMaxBandwidth,  ///< serves the oldest request; ties by max bandwidth
};

inline constexpr const char* kTapePolicyNames[] = {
    "round-robin", "max-requests", "max-bandwidth", "oldest-max-requests",
    "oldest-max-bandwidth"};

/// Short lowercase name ("max-bandwidth", ...) for display.
inline const char* TapePolicyName(TapePolicy policy) {
  return kTapePolicyNames[static_cast<int>(policy)];
}

/// Behaviour knobs shared by all schedulers (ablation switches).
struct SchedulerOptions {
  /// Allow the incremental scheduler to insert below-head arrivals into the
  /// sweep's reverse phase (on-the-way-back-down reads). Disabling this
  /// restricts insertion to the forward phase (ablation).
  bool allow_reverse_phase = true;
  /// Enable step 5 (envelope shrinking) of the envelope-extension
  /// algorithm. Disabling it is the abl_envelope_shrink ablation.
  bool envelope_shrink = true;
  /// Use the paper's replica tie-break in envelope step 2 (prefer the
  /// mounted tape, then the tape with the most scheduled requests, then
  /// jukebox order). When false, always take the first replica in jukebox
  /// order (abl_replica_choice ablation).
  bool paper_replica_tiebreak = true;
  /// Debug oracle for the envelope scheduler: cross-check the incremental
  /// extension kernel against the from-scratch reference computation on
  /// every major reschedule, and validate the incrementally maintained
  /// extension lists / cached tape scores on every extension round.
  /// TJ_CHECK-fails on any divergence. Expensive; test/debug builds only.
  bool validate_envelope = false;
  /// Batched rescheduling: when > 0, arrivals are staged and only applied
  /// to the scheduler once `arrival_batch` of them have accumulated (or a
  /// major reschedule / fault event flushes the batch early). 0 preserves
  /// the legacy per-arrival behaviour. Staged requests still count toward
  /// pending_size()/HasWork(). This is a policy knob, not an equivalence-
  /// preserving fast path: it trades arrival-insertion opportunities for
  /// amortized scheduling cost at deep queues.
  int32_t arrival_batch = 0;
  /// Envelope epoch rescheduling: when > 1, one upper-envelope computation
  /// is reused for up to `reschedule_epoch` consecutive tape visits — the
  /// follow-up visits serve in-envelope pending work without re-running
  /// the extension kernel, falling back to a full recompute when the
  /// envelope has no servable work left. 1 preserves legacy behaviour
  /// (recompute on every major reschedule). Policy knob, like
  /// arrival_batch.
  int32_t reschedule_epoch = 1;

  /// One row per field (util/fields.h). Results JSON writes the three
  /// ablation switches; the oracle and the two policy knobs are not
  /// written.
  std::vector<Field> Fields();

  /// InvalidArgument for arrival_batch < 0 or reschedule_epoch < 1.
  Status Validate() const;
};

/// Rank of `tape` scanning the jukebox circularly from `origin` (origin
/// itself has rank 0; a negative origin scans from tape 0). Lower rank wins
/// ties.
inline int32_t ScanRank(TapeId tape, TapeId origin, int32_t num_tapes) {
  if (origin < 0) origin = 0;
  origin %= num_tapes;
  return (tape - origin + num_tapes) % num_tapes;
}

/// Applies `policy` to the candidate tapes. `mounted`/`head` describe the
/// drive state (for bandwidth estimates and jukebox-order tie-breaks).
/// Returns kInvalidTape if no candidate has requests.
TapeId SelectTape(TapePolicy policy, const std::vector<TapeCandidate>& tapes,
                  TapeId mounted, Position head, int32_t num_tapes,
                  const ScheduleCost& cost);

/// Base class holding the pending list, the active sweep, and shared
/// helpers. Subclasses implement tape selection + sweep construction and
/// the incremental arrival rule.
class Scheduler {
 public:
  /// `jukebox` and `catalog` must outlive the scheduler.
  Scheduler(const Jukebox* jukebox, const Catalog* catalog,
            const SchedulerOptions& options);
  virtual ~Scheduler() = default;

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Human-readable algorithm name ("dynamic max-bandwidth", ...).
  virtual std::string name() const = 0;

  /// Incremental scheduler: a request arrived. `committed_head` is the head
  /// position after the operation currently in flight (== the current head
  /// when the drive is idle); insertions may only target positions still
  /// ahead of it. With arrival_batch > 0 the request is staged and applied
  /// later (see FlushArrivals); otherwise it is applied immediately via the
  /// subclass's OnArrivalNow.
  void OnArrival(const Request& request, Position committed_head);

  /// Applies every staged arrival (in arrival order) through the normal
  /// incremental-scheduling path, using the most recent committed head.
  /// Positions ahead of the latest committed head are ahead of every
  /// earlier head too, so the late insertions remain legal. No-op when
  /// nothing is staged.
  void FlushArrivals();

  /// Major rescheduler: called when the served drive's service list is
  /// empty. Chooses the next tape, moves the requests it will serve from
  /// the pending list into the sweep, and returns the tape to mount
  /// (kInvalidTape if there is no pending work, or with several drives
  /// when every tape with work is held by another drive).
  virtual TapeId MajorReschedule() = 0;

  /// Pops the next service entry of the served drive's sweep. (Virtual so
  /// decorators like ValidatingScheduler can intercept the execution
  /// stream.)
  virtual std::optional<ServiceEntry> PopNext() {
    return served_sweep().Pop();
  }

  /// Enqueues a background (repair-source) read. Background requests are
  /// never handed to OnArrival: they are ordered strictly behind client
  /// work — MajorReschedule only builds a sweep for them when the pending
  /// list is empty — but they piggyback for free on any client sweep that
  /// visits a tape holding a live replica of their block.
  virtual void EnqueueBackground(const Request& request);

  /// The served drive's sweep is empty.
  virtual bool sweep_empty() const { return served_sweep().empty(); }
  /// Entries queued across every drive's sweep.
  virtual size_t sweep_size() const;
  virtual size_t pending_size() const {
    return pending_.size() + staged_.size();
  }
  virtual size_t background_size() const { return background_.size(); }
  /// Queued work, or entries left in the served drive's sweep.
  virtual bool HasWork() const {
    return !pending_.empty() || !staged_.empty() || !sweep_empty() ||
           !background_.empty();
  }

  /// Arrivals staged by the batching layer but not yet applied.
  size_t staged_size() const { return staged_.size(); }

  /// Fault recovery: abandons the served drive's sweep and returns every
  /// request it held, so the simulator can fail them over (the mounted
  /// tape died). Subclasses with derived sweep state override to
  /// invalidate it.
  virtual std::vector<Request> DrainSweep();

  /// Fault recovery: removes and returns every pending request whose block
  /// no longer has any live replica (the simulator completes them with an
  /// error). Called after replicas are masked dead.
  virtual std::vector<Request> EvictUnservablePending();

  /// Overload protection: removes and returns every pending (or staged)
  /// request whose deadline is at or before `now` (the simulator completes
  /// them as expired). Deadlines are a queueing bound, so the active sweep
  /// is left alone — a request already committed to a sweep finishes
  /// normally. Background requests never carry deadlines.
  virtual std::vector<Request> EvictExpired(double now);

  /// The served drive's sweep (virtual so decorators expose the wrapped
  /// one; the simulator reads it to trace scheduled-into-sweep
  /// transitions).
  virtual const Sweep& sweep() const { return served_sweep(); }
  const std::vector<Request>& pending() const { return pending_; }
  const std::vector<Request>& background() const { return background_; }

  /// Observability: attaches a sink that receives one DecisionRecord per
  /// major reschedule (drive, candidates, scores, the chosen tape). Null (the
  /// default) detaches; with no sink attached the hook costs one branch.
  /// Decorators override to forward to the wrapped scheduler.
  virtual void set_decision_sink(obs::DecisionSink* sink) {
    decision_sink_ = sink;
  }
  obs::DecisionSink* decision_sink() const { return decision_sink_; }

 protected:
  /// The subclass's incremental-scheduling rule, applied to one request
  /// (immediately, or deferred through the staging buffer — see OnArrival).
  virtual void OnArrivalNow(const Request& request,
                            Position committed_head) = 0;

  /// Moves staged arrivals straight onto the pending list, bypassing
  /// OnArrivalNow. Used on the fault paths (DrainSweep /
  /// EvictUnservablePending), where sweep insertion would race the drain.
  void AbsorbStagedToPending();

  /// MajorReschedule fallback when no client work is pending: picks the
  /// tape satisfying the most background requests (ties in jukebox order)
  /// and builds their sweep. Returns kInvalidTape when the background
  /// queue is empty too, or every tape it needs is held by another drive.
  TapeId BackgroundReschedule();

  /// One tape visit (paper §3): walks `queue` (pending_ or background_)
  /// for each tape's servable requests, counting only replicas inside
  /// `envelope` when it is non-null; withdraws the tapes another drive
  /// holds (the tape-claim check, LTFS-DM's `tapeResAvail`); applies
  /// `policy`; records the decision (the envelope counters go into the
  /// record); and moves the chosen tape's requests from `queue` into the
  /// served drive's sweep, with background riders on a client visit.
  /// The oldest-request rule does not apply to background work. Returns
  /// kInvalidTape, moving nothing, when no free tape has work.
  TapeId ScheduleVisit(TapePolicy policy, std::vector<Request>* queue,
                       const std::vector<Position>* envelope,
                       int64_t envelope_rounds = 0,
                       int64_t tapes_rescored = 0);

  Sweep& served_sweep() {
    return sweeps_[static_cast<size_t>(jukebox_->served_drive())];
  }
  const Sweep& served_sweep() const {
    return sweeps_[static_cast<size_t>(jukebox_->served_drive())];
  }

  /// Folds every queued background request with a live replica on `tape`
  /// into the just-built sweep (free piggyback riders on the client pass);
  /// the rest stay queued.
  void PiggybackBackground(TapeId tape);

  /// Where a sweep on `tape` starts: the served drive's head if `tape` is
  /// mounted there, else 0.
  Position StartHead(TapeId tape) const {
    return tape == jukebox_->mounted_tape() ? jukebox_->head() : 0;
  }

  /// Removes from `queue`, in one in-place pass, every request for which
  /// `take(request)` returns true (`take` may move it elsewhere first);
  /// the rest keep their order.
  template <typename Take>
  static void TakeIf(std::vector<Request>* queue, Take take) {
    size_t kept = 0;
    for (size_t i = 0; i < queue->size(); ++i) {
      if (!take((*queue)[i])) (*queue)[kept++] = (*queue)[i];
    }
    queue->resize(kept);
  }

  /// Pushes one DecisionRecord to the attached sink; no-op without one.
  /// Call after tape selection but before extracting the sweep, so queue
  /// depths reflect the decision's inputs. Candidates without work are
  /// dropped; the rest are scored with the bandwidth estimator.
  void RecordDecision(bool background, TapeId chosen,
                      const std::vector<TapeCandidate>& candidates,
                      int64_t envelope_rounds = 0,
                      int64_t tapes_rescored = 0) const;

  const Jukebox* jukebox_;
  const Catalog* catalog_;
  SchedulerOptions options_;
  ScheduleCost cost_;
  std::vector<Request> pending_;
  std::vector<Request> background_;
  /// One sweep per drive, sized from the jukebox at construction.
  std::vector<Sweep> sweeps_;
  /// ScheduleVisit's candidate walk (BuildTapeCandidates), which
  /// ExtractSweepForTape then consumes.
  TapeCandidateSet candidates_;
  obs::DecisionSink* decision_sink_ = nullptr;

  /// Arrival-batching buffer (see SchedulerOptions::arrival_batch) and the
  /// most recent committed head, used when the batch is flushed.
  std::vector<Request> staged_;
  Position staged_head_ = 0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_SCHEDULER_H_
