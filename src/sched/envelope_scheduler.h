// The envelope-extension scheduling algorithm (paper §3.2).
//
// Unlike the greedy algorithms, envelope extension takes a global view over
// all tapes and all replicas. The requests for *non-replicated* blocks pin
// down an initial "envelope" — the set of tape prefixes that must be
// traversed no matter what. Requests with a replica inside the envelope are
// absorbed for free. The remaining requests are scheduled by repeatedly
// extending the envelope with the extension-list prefix of highest
// *incremental bandwidth* (bytes fetched per extra second, including the
// locate out, the reads, the locate back, and a tape-switch surcharge for
// previously untouched tapes), then shrinking the envelope wherever a
// just-enclosed replica makes an edge block on another tape redundant.
//
// The scheduling-extension problem is NP-hard (Theorem 1); the greedy
// bandwidth extension is within a harmonic factor of the optimal extension
// (Theorem 2) — see theory.h for the cost functions used to validate this.
//
// When no data are replicated, every request is absorbed in step 2, steps
// 3-6 have nothing to do, and the algorithm degenerates into the
// corresponding dynamic greedy algorithm.
//
// The extension kernel is *incremental*: the per-tape extension lists are
// built once per call, during step 2, and maintained in place as requests
// are scheduled, and per-tape prefix-bandwidth scores are cached and
// re-evaluated only for tapes whose envelope edge or list contents changed
// since the last round; the best tape is then a linear scan over the
// cached scores. The kernel refers to requests by their index in its input
// (the pending list on the production path) and keeps its state across
// calls, so a warm reschedule copies no request and allocates nothing. Two
// policy knobs amortize the kernel at deep queues (SchedulerOptions::
// arrival_batch, reschedule_epoch); see docs/ALGORITHM.md.
//
// The original from-scratch computation is kept as
// ComputeUpperEnvelopeReference and serves as the correctness oracle
// (SchedulerOptions::validate_envelope cross-checks the incremental kernel
// against it on live workloads).

#ifndef TAPEJUKE_SCHED_ENVELOPE_SCHEDULER_H_
#define TAPEJUKE_SCHED_ENVELOPE_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "sched/scheduler.h"

namespace tapejuke {

/// Envelope-extension scheduler with a pluggable tape-selection policy
/// (oldest-request / max-requests / max-bandwidth envelope variants).
class EnvelopeScheduler : public Scheduler {
 public:
  EnvelopeScheduler(const Jukebox* jukebox, const Catalog* catalog,
                    TapePolicy policy, const SchedulerOptions& options = {});
  ~EnvelopeScheduler() override;

  std::string name() const override;

  TapePolicy policy() const { return policy_; }

  TapeId MajorReschedule() override;

  /// Fault recovery: abandons the sweep and invalidates the persisted
  /// envelope (it described a schedule that included the drained work).
  std::vector<Request> DrainSweep() override;

  /// Output of the upper-envelope computation (exposed for tests and the
  /// Theorem-2 validation).
  struct EnvelopeResult {
    /// Per-tape upper envelope (position up to which the tape prefix is
    /// traversed; block-aligned).
    std::vector<Position> envelope;
    /// Chosen replica for every input request.
    std::unordered_map<RequestId, Replica> assignment;
    /// Number of requests assigned per tape.
    std::vector<int64_t> scheduled_per_tape;
    /// Step 3-4 iterations this computation took.
    int64_t extension_rounds = 0;
    /// Per-tape envelope at the end of step 2 (before any extension) and
    /// the requests that were still unscheduled then — the (S1, remaining)
    /// pair of Theorems 1-2. Like `assignment`, filled only where the
    /// result is materialized: ComputeUpperEnvelope, the reference kernel
    /// and the oracle cross-checks. A production reschedule reads only the
    /// envelope and skips all three (unless validate_envelope is on).
    std::vector<Position> initial_envelope;
    std::vector<Request> initially_unscheduled;
  };

  /// Runs steps 1-6 of the major rescheduler on `requests` against the
  /// current drive state using the incremental extension kernel. Pure
  /// (does not modify scheduler state beyond the behaviour counters and
  /// reusable scratch buffers).
  EnvelopeResult ComputeUpperEnvelope(
      const std::vector<Request>& requests) const;

  /// The from-scratch reference computation: identical semantics, but the
  /// extension lists are re-enumerated, re-sorted, and fully re-scored on
  /// every round. Serves as the oracle for the incremental kernel; does
  /// not touch the behaviour counters.
  EnvelopeResult ComputeUpperEnvelopeReference(
      const std::vector<Request>& requests) const;

  /// The upper envelope persisted from the last major reschedule (empty
  /// before the first). For inspection in tests.
  const std::vector<Position>& current_envelope() const { return envelope_; }

  /// Algorithm-behaviour counters (cumulative over the scheduler's life).
  struct EnvelopeCounters {
    int64_t major_reschedules = 0;
    int64_t extension_rounds = 0;     ///< step 3-4 iterations
    int64_t tapes_rescored = 0;       ///< per-tape prefix re-evaluations
    int64_t shrink_moves = 0;         ///< step 5 reassignments
    int64_t multi_replica_choices = 0;  ///< step-2 picks among >1 option
    int64_t incremental_inserts = 0;  ///< arrivals inserted into the sweep
    int64_t sweep_trims = 0;          ///< active-sweep blocks removed by shrink
    /// Always 0. Kept only so the benchmark package, which reports it,
    /// still compiles; nothing in the scheduler counts it.
    int64_t master_rebuilds = 0;
    int64_t epoch_reuses = 0;  ///< reschedules served from a reused envelope
  };
  const EnvelopeCounters& counters() const { return counters_; }

 protected:
  void OnArrivalNow(const Request& request, Position committed_head) override;

 private:
  /// Shared mutable state of one upper-envelope computation and the
  /// reusable scratch buffers (defined in the .cc).
  struct KernelState;
  struct KernelScratch;

  /// Steps 1-2: resets `state` for `requests`, pins the initial envelope
  /// and absorbs every request with an in-envelope replica; fills
  /// state->unscheduled with the indices of the rest (and their extension
  /// lists, when the state has them).
  void BuildInitialEnvelope(const std::vector<Request>& requests,
                            KernelState* state,
                            EnvelopeCounters* counters) const;

  /// If some replica of request `index` lies inside the envelope, assigns
  /// the request there (per the step-2 tie-break) and returns true.
  bool TryAbsorb(uint32_t index, KernelState* state,
                 EnvelopeCounters* counters) const;

  /// Step 5: moves redundant envelope-edge blocks to covered replicas and
  /// retracts the donor envelopes. Tapes whose edge retreated are flagged
  /// in `dirty` when non-null (the incremental kernel's re-score set).
  void RunShrinkLoop(KernelState* state, EnvelopeCounters* counters,
                     std::vector<char>* dirty) const;

  /// Kernel bodies behind the public entry points. The incremental kernel
  /// works in the reusable scratch state and returns its result in place,
  /// valid until the next call. With `want_assignment` false the
  /// per-request assignment map and the step-2 snapshot are not
  /// materialized (the production reschedule path only reads the
  /// envelope; they feed the oracle and the theory checks). The reference
  /// kernel builds a fresh state of its own on every call, so the oracle
  /// shares nothing with the code it checks.
  EnvelopeResult& RunIncrementalKernel(const std::vector<Request>& requests,
                                       EnvelopeCounters* counters,
                                       bool want_assignment) const;
  EnvelopeResult RunReferenceKernel(const std::vector<Request>& requests,
                                    EnvelopeCounters* counters) const;

  /// The tie-break between two in-envelope replicas of a request (step 2
  /// absorbs and step 5 moves): true when `candidate` beats `best`
  /// (always, when `best` is null). The mounted tape comes first, then
  /// the tape with the most scheduled requests, then scan order from the
  /// mounted tape; under the ablation (!paper_replica_tiebreak), the
  /// lowest tape id. A block's replicas lie on distinct tapes, so this is
  /// a strict order and a walk keeping each preferred replica picks the
  /// same one in any walk order.
  bool PrefersInsideReplica(const Replica& candidate, const Replica* best,
                            const std::vector<int64_t>& scheduled_per_tape,
                            TapeId mounted) const;

  /// Step 5: shrink the active sweep's envelope after `extended_tape` was
  /// extended (incremental variant): any block scheduled at the outer edge
  /// of the mounted tape's envelope that has a replica inside the extended
  /// tape's envelope is removed from the sweep, its requests re-deferred.
  void ShrinkActiveSweep(TapeId extended_tape, Position committed_head);

  /// Re-adds `request` to the pending list keeping arrival (id) order.
  void DeferInOrder(const Request& request);

  /// Lazily allocated reusable scratch (the incremental kernel's state and
  /// temporaries survive across calls, so a warm reschedule allocates
  /// nothing).
  KernelScratch& Scratch() const;

  TapePolicy policy_;
  std::vector<Position> envelope_;  ///< persisted between major reschedules
  bool envelope_valid_ = false;
  int32_t epoch_visits_ = 0;  ///< tape visits served by the current envelope
  mutable EnvelopeCounters counters_;
  mutable std::unique_ptr<KernelScratch> scratch_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_ENVELOPE_SCHEDULER_H_
