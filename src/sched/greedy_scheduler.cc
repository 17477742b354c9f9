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
  if (dynamic_ && !sweep_.empty()) {
    const TapeId mounted = jukebox_->mounted_tape();
    const Replica* replica =
        (mounted == kInvalidTape)
            ? nullptr
            : catalog_->LiveReplicaOn(request.block, mounted);
    if (replica != nullptr &&
        sweep_.InsertRequest(request, replica->position, committed_head,
                             options_.allow_reverse_phase)) {
      return;
    }
  }
  pending_.push_back(request);
}

TapeId GreedyScheduler::MajorReschedule() {
  TJ_CHECK(sweep_.empty());
  FlushArrivals();
  if (pending_.empty()) return BackgroundReschedule();
  BuildTapeCandidates(*jukebox_, *catalog_, pending_, /*envelope=*/nullptr,
                      &candidates_);
  const TapeId tape =
      SelectTape(policy_, candidates_.tapes(), jukebox_->mounted_tape(),
                 jukebox_->head(), jukebox_->num_tapes(), cost_);
  TJ_CHECK_NE(tape, kInvalidTape);
  RecordDecision(/*background=*/false, tape, candidates_.tapes());
  ExtractSweepForTape(&candidates_, tape, StartHead(tape), &pending_,
                      &sweep_);
  TJ_CHECK(!sweep_.empty());
  PiggybackBackground(tape);
  return tape;
}

}  // namespace tapejuke
