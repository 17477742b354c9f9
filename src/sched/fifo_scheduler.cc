#include "sched/fifo_scheduler.h"

#include "util/check.h"

namespace tapejuke {

FifoScheduler::FifoScheduler(const Jukebox* jukebox, const Catalog* catalog,
                             const SchedulerOptions& options)
    : Scheduler(jukebox, catalog, options) {}

void FifoScheduler::OnArrivalNow(const Request& request,
                                 Position committed_head) {
  (void)committed_head;
  pending_.push_back(request);
}

TapeId FifoScheduler::MajorReschedule() {
  FlushArrivals();
  if (pending_.empty()) return BackgroundReschedule();
  const Request oldest = pending_.front();
  pending_.pop_front();

  // Prefer a live replica on the mounted tape; otherwise the first live
  // replica. The simulator evicts requests with no live replica before any
  // reschedule, so one always exists.
  const Replica* chosen =
      catalog_->LiveReplicaOn(oldest.block, jukebox_->mounted_tape());
  if (chosen == nullptr) {
    for (const Replica& replica : catalog_->ReplicasOf(oldest.block)) {
      if (catalog_->IsAlive(replica)) {
        chosen = &replica;
        break;
      }
    }
  }
  TJ_CHECK(chosen != nullptr) << "pending request with no live replica";

  if (decision_sink_ != nullptr) {
    // FIFO considers exactly one candidate: the replica it picked.
    TapeCandidate only;
    only.tape = chosen->tape;
    only.members.push_back(
        CandidateMember{0, static_cast<int32_t>(chosen->slot)});
    only.positions.push_back(chosen->position);
    only.serves_oldest = true;
    RecordDecision(/*background=*/false, chosen->tape, {only});
  }

  ServiceEntry entry{chosen->position, oldest.block, {oldest}};
  // Other pending requests for the same block ride along for free.
  std::deque<Request> keep;
  for (const Request& request : pending_) {
    if (request.block == oldest.block) {
      entry.requests.push_back(request);
    } else {
      keep.push_back(request);
    }
  }
  pending_ = std::move(keep);

  const Position start_head =
      (chosen->tape == jukebox_->mounted_tape()) ? jukebox_->head() : 0;
  if (entry.position >= start_head) {
    sweep_.AppendForward(entry);
  } else {
    sweep_.AppendReverse(entry);
  }
  PiggybackBackground(chosen->tape);
  return chosen->tape;
}

}  // namespace tapejuke
