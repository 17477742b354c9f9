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
  // Prefer a live replica on the mounted tape, otherwise the first live
  // replica on a tape no other drive holds.
  const auto pick_replica = [this](BlockId block) -> const Replica* {
    const Replica* mounted =
        catalog_->LiveReplicaOn(block, jukebox_->mounted_tape());
    if (mounted != nullptr) return mounted;
    for (const Replica& replica : catalog_->ReplicasOf(block)) {
      if (catalog_->IsAlive(replica) &&
          !jukebox_->HeldByOtherDrive(replica.tape)) {
        return &replica;
      }
    }
    return nullptr;
  };
  // Serve the oldest request this drive can reach. With one drive that is
  // the oldest request: the simulator evicts requests with no live
  // replica before any reschedule.
  const Replica* chosen = nullptr;
  auto it = pending_.begin();
  while (it != pending_.end() &&
         (chosen = pick_replica(it->block)) == nullptr) {
    ++it;
  }
  if (chosen == nullptr) {
    TJ_CHECK_GT(jukebox_->num_drives(), 1)
        << "pending request with no live replica";
    return kInvalidTape;
  }
  const Request oldest = *it;
  pending_.erase(it);

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

  if (entry.position >= StartHead(chosen->tape)) {
    served_sweep().AppendForward(entry);
  } else {
    served_sweep().AppendReverse(entry);
  }
  PiggybackBackground(chosen->tape);
  return chosen->tape;
}

}  // namespace tapejuke
