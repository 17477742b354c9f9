#include "sched/validating_scheduler.h"

#include <vector>

#include "sched/envelope_scheduler.h"
#include "util/check.h"

namespace tapejuke {

ValidatingScheduler::ValidatingScheduler(std::unique_ptr<Scheduler> inner,
                                         const Jukebox* jukebox,
                                         const Catalog* catalog)
    : Scheduler(jukebox, catalog, SchedulerOptions{}),
      inner_(std::move(inner)),
      sweep_states_(static_cast<size_t>(jukebox->num_drives())) {
  TJ_CHECK(inner_ != nullptr);
}

std::string ValidatingScheduler::name() const {
  return "validated " + inner_->name();
}

void ValidatingScheduler::OnArrivalNow(const Request& request,
                                       Position committed_head) {
  TJ_CHECK(request.cls == RequestClass::kClient)
      << "background requests must use EnqueueBackground";
  TJ_CHECK(outstanding_.insert(request.id))
      << "request" << request.id << "enqueued twice";
  ++arrivals_seen_;
  inner_->OnArrival(request, committed_head);
}

void ValidatingScheduler::EnqueueBackground(const Request& request) {
  TJ_CHECK(request.cls == RequestClass::kBackground)
      << "client requests must use OnArrival";
  TJ_CHECK(outstanding_.insert(request.id))
      << "request" << request.id << "enqueued twice";
  ++arrivals_seen_;
  inner_->EnqueueBackground(request);
}

TapeId ValidatingScheduler::MajorReschedule() {
  TJ_CHECK(inner_->sweep_empty())
      << "major reschedule with a non-empty sweep";
  // The oracle must see the same pending snapshot the inner reschedule
  // will use, so staged arrival batches are applied first.
  inner_->FlushArrivals();
  // Envelope oracle: run the incremental and from-scratch extension kernels
  // on the same pending snapshot the inner reschedule is about to use and
  // TJ_CHECK they agree (byte-identical envelopes and assignments).
  if (const auto* envelope =
          dynamic_cast<const EnvelopeScheduler*>(inner_.get());
      envelope != nullptr && !inner_->pending().empty()) {
    envelope->CrossCheckEnvelope(std::vector<Request>(
        inner_->pending().begin(), inner_->pending().end()));
  }
  const TapeId tape = inner_->MajorReschedule();
  if (tape == kInvalidTape) {
    // With several drives the work may all sit on tapes other drives hold.
    TJ_CHECK(jukebox_->num_drives() > 1 || !inner_->HasWork())
        << "scheduler declined to schedule while work was pending";
    return tape;
  }
  TJ_CHECK(tape >= 0 && tape < jukebox_->num_tapes());
  TJ_CHECK(!jukebox_->HeldByOtherDrive(tape))
      << "tape" << tape << "is held by another drive";
  TJ_CHECK(!inner_->sweep_empty())
      << "major rescheduler chose a tape but built no sweep";
  served_state() = SweepState{
      tape, (tape == jukebox_->mounted_tape()) ? jukebox_->head() : 0, -1,
      false};
  return tape;
}

std::vector<Request> ValidatingScheduler::DrainSweep() {
  std::vector<Request> drained = inner_->DrainSweep();
  TJ_CHECK(inner_->sweep_empty());
  for (const Request& request : drained) {
    TJ_CHECK(outstanding_.erase(request.id) == 1)
        << "drained request" << request.id << "was not outstanding";
  }
  // The sweep is gone; any pop before the next major reschedule is a bug.
  served_state().tape = kInvalidTape;
  return drained;
}

std::vector<Request> ValidatingScheduler::EvictUnservablePending() {
  std::vector<Request> evicted = inner_->EvictUnservablePending();
  for (const Request& request : evicted) {
    TJ_CHECK(outstanding_.erase(request.id) == 1)
        << "evicted request" << request.id << "was not outstanding";
  }
  return evicted;
}

std::vector<Request> ValidatingScheduler::EvictExpired(double now) {
  std::vector<Request> expired = inner_->EvictExpired(now);
  for (const Request& request : expired) {
    TJ_CHECK(request.deadline > 0 && request.deadline <= now)
        << "request" << request.id << "evicted before its deadline";
    TJ_CHECK(outstanding_.erase(request.id) == 1)
        << "expired request" << request.id << "was not outstanding";
  }
  return expired;
}

std::optional<ServiceEntry> ValidatingScheduler::PopNext() {
  std::optional<ServiceEntry> entry = inner_->PopNext();
  if (!entry.has_value()) return entry;
  SweepState& state = served_state();
  TJ_CHECK_NE(state.tape, kInvalidTape)
      << "entry popped before any major reschedule";

  // The read must target a real replica of the block on the chosen tape.
  const Replica* replica = catalog_->ReplicaOn(entry->block, state.tape);
  TJ_CHECK(replica != nullptr)
      << "block" << entry->block << "has no replica on tape" << state.tape;
  TJ_CHECK_EQ(replica->position, entry->position);

  // Single-sweep order: ascending positions >= the mount head, then a
  // descending reverse phase.
  // A request arriving while a block is being read may legally trigger a
  // second read of the same position (a one-block reverse locate), so the
  // descent checks are <=, not <.
  if (!state.in_reverse) {
    const bool forward_ok = entry->position >= state.mount_head &&
                            entry->position > state.last_position;
    if (!forward_ok) {
      state.in_reverse = true;  // the sweep turned around
      TJ_CHECK(state.last_position == -1 ||
               entry->position <= state.last_position)
          << "reverse phase must descend: " << entry->position << " after "
          << state.last_position;
    }
  } else {
    TJ_CHECK_LE(entry->position, state.last_position)
        << "reverse phase must descend";
  }
  state.last_position = entry->position;

  // Every satisfied request must be outstanding, exactly once.
  TJ_CHECK(!entry->requests.empty()) << "service entry with no requests";
  for (const Request& request : entry->requests) {
    TJ_CHECK_EQ(request.block, entry->block);
    TJ_CHECK(outstanding_.erase(request.id) == 1)
        << "request" << request.id << "served twice or never enqueued";
    ++requests_served_;
  }
  return entry;
}

}  // namespace tapejuke
