// ValidatingScheduler: a decorator that checks scheduler-contract
// invariants at runtime.
//
// Wraps any Scheduler and TJ_CHECKs, on every interaction, that:
//
//  * every popped service entry reads a block that actually has a replica
//    at that position on the tape the major rescheduler chose;
//  * the entries each drive pops between two of its major reschedules form
//    one legal sweep: a forward phase of ascending positions starting at or
//    after the mount head, followed by a reverse phase of descending
//    positions;
//  * every request enters the scheduler exactly once and leaves exactly
//    once (no losses, no duplicates);
//  * the major rescheduler only reports a tape when work exists, never one
//    held by another drive, and the sweep it builds is non-empty.
//
// Used by the cross-algorithm property tests to exercise every scheduler
// under randomized workloads with the full invariant set armed; also handy
// when developing new scheduling algorithms. The envelope scheduler's own
// oracle (incremental kernel against the from-scratch reference) is armed
// separately, with SchedulerOptions::validate_envelope.

#ifndef TAPEJUKE_SCHED_VALIDATING_SCHEDULER_H_
#define TAPEJUKE_SCHED_VALIDATING_SCHEDULER_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sched/scheduler.h"

namespace tapejuke {

/// Invariant-checking decorator around any Scheduler.
class ValidatingScheduler : public Scheduler {
 public:
  /// Takes ownership of `inner`. The jukebox/catalog must be the ones the
  /// inner scheduler was built against.
  ValidatingScheduler(std::unique_ptr<Scheduler> inner,
                      const Jukebox* jukebox, const Catalog* catalog);

  std::string name() const override;

  void EnqueueBackground(const Request& request) override;
  TapeId MajorReschedule() override;

  /// Validated pop: checks replica placement and sweep-order invariants
  /// before handing the entry to the simulator.
  std::optional<ServiceEntry> PopNext() override;

  const Sweep& sweep() const override { return inner_->sweep(); }
  bool sweep_empty() const override { return inner_->sweep_empty(); }
  size_t sweep_size() const override { return inner_->sweep_size(); }
  size_t pending_size() const override { return inner_->pending_size(); }
  size_t background_size() const override {
    return inner_->background_size();
  }
  bool HasWork() const override { return inner_->HasWork(); }

  /// Fault-recovery forwarding: the returned requests leave the scheduler
  /// (the simulator fails them or re-enqueues them via OnArrival), so they
  /// are dropped from the outstanding set.
  std::vector<Request> DrainSweep() override;
  std::vector<Request> EvictUnservablePending() override;
  std::vector<Request> EvictExpired(double now) override;

  /// Decisions are made by (and recorded from) the wrapped scheduler.
  void set_decision_sink(obs::DecisionSink* sink) override {
    inner_->set_decision_sink(sink);
  }

  /// Requests seen / completed so far (for conservation checks in tests).
  int64_t arrivals_seen() const { return arrivals_seen_; }
  int64_t requests_served() const { return requests_served_; }

  /// Requests currently inside the scheduler (pending or in the sweep).
  int64_t outstanding() const {
    return static_cast<int64_t>(outstanding_.size());
  }

  Scheduler* inner() { return inner_.get(); }

 protected:
  void OnArrivalNow(const Request& request, Position committed_head) override;

 private:
  std::unique_ptr<Scheduler> inner_;
  std::unordered_set<RequestId> outstanding_;
  int64_t arrivals_seen_ = 0;
  int64_t requests_served_ = 0;

  /// The sweep each drive is executing, for the sweep-order check.
  struct SweepState {
    TapeId tape = kInvalidTape;
    Position mount_head = 0;
    Position last_position = -1;
    bool in_reverse = false;
  };
  SweepState& served_state() {
    return sweep_states_[static_cast<size_t>(jukebox_->served_drive())];
  }
  std::vector<SweepState> sweep_states_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_VALIDATING_SCHEDULER_H_
