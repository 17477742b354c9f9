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
    const auto slot = static_cast<size_t>(chosen->slot);
    only.members.push_back(CandidateMember{0, static_cast<int32_t>(slot)});
    only.slot_bits.assign(slot / 64 + 1, 0);
    only.slot_bits.back() |= uint64_t{1} << (slot % 64);
    only.serves_oldest = true;
    RecordDecision(/*background=*/false, chosen->tape, {only});
  }

  const Sweep::Phase phase = chosen->position >= StartHead(chosen->tape)
                                ? Sweep::Phase::kForward
                                : Sweep::Phase::kReverse;
  Sweep& sweep = served_sweep();
  sweep.Add(phase, chosen->position, oldest);
  // Other pending requests for the same block ride along for free.
  TakeIf(&pending_, [&](const Request& request) {
    if (request.block != oldest.block) return false;
    sweep.Add(phase, chosen->position, request);
    return true;
  });
  PiggybackBackground(chosen->tape);
  return chosen->tape;
}

}  // namespace tapejuke
