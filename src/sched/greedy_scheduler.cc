#include "sched/greedy_scheduler.h"

#include "util/check.h"

namespace tapejuke {

GreedyScheduler::GreedyScheduler(const Jukebox* jukebox,
                                 const Catalog* catalog, TapePolicy policy,
                                 bool dynamic,
                                 const SchedulerOptions& options)
    : Scheduler(jukebox, catalog, options),
      policy_(policy),
      dynamic_(dynamic) {}

std::string GreedyScheduler::name() const {
  return std::string(dynamic_ ? "dynamic " : "static ") +
         TapePolicyName(policy_);
}

void GreedyScheduler::OnArrivalNow(const Request& request,
                                   Position committed_head) {
  if (dynamic_) {
    // Into the first running sweep, in drive order, whose mounted tape
    // holds a live replica still ahead of that drive's head (the served
    // drive's is `committed_head`; the others' are read off the jukebox).
    const int32_t served = jukebox_->served_drive();
    for (int32_t d = 0; d < static_cast<int32_t>(sweeps_.size()); ++d) {
      Sweep& sweep = sweeps_[static_cast<size_t>(d)];
      if (sweep.empty()) continue;
      const Drive& drive = jukebox_->drive(d);
      const TapeId mounted = drive.loaded_tape();
      const Replica* replica =
          (mounted == kInvalidTape)
              ? nullptr
              : catalog_->LiveReplicaOn(request.block, mounted);
      if (replica != nullptr &&
          sweep.InsertRequest(request, replica->position,
                              d == served ? committed_head : drive.head(),
                              options_.allow_reverse_phase)) {
        return;
      }
    }
  }
  pending_.push_back(request);
}

TapeId GreedyScheduler::MajorReschedule() {
  TJ_CHECK(served_sweep().empty());
  FlushArrivals();
  if (pending_.empty()) return BackgroundReschedule();
  BuildTapeCandidates(*jukebox_, *catalog_, pending_, /*envelope=*/nullptr,
                      &candidates_);
  DropClaimedCandidates();
  const TapeId tape =
      SelectTape(policy_, candidates_.tapes(), jukebox_->mounted_tape(),
                 jukebox_->head(), jukebox_->num_tapes(), cost_);
  if (tape == kInvalidTape) return kInvalidTape;
  RecordDecision(/*background=*/false, tape, candidates_.tapes());
  ExtractSweepForTape(&candidates_, tape, StartHead(tape), &pending_,
                      &served_sweep());
  TJ_CHECK(!served_sweep().empty());
  PiggybackBackground(tape);
  return tape;
}

}  // namespace tapejuke
