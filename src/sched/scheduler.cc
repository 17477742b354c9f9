#include "sched/scheduler.h"

#include <algorithm>

#include "sched/sweep_builder.h"
#include "util/check.h"

namespace tapejuke {

const char* TapePolicyName(TapePolicy policy) {
  switch (policy) {
    case TapePolicy::kRoundRobin:
      return "round-robin";
    case TapePolicy::kMaxRequests:
      return "max-requests";
    case TapePolicy::kMaxBandwidth:
      return "max-bandwidth";
    case TapePolicy::kOldestMaxRequests:
      return "oldest-max-requests";
    case TapePolicy::kOldestMaxBandwidth:
      return "oldest-max-bandwidth";
  }
  return "unknown";
}

namespace {

/// Rank of `tape` in jukebox scan order starting at `origin` (origin itself
/// first). Lower rank wins ties.
int32_t ScanRank(TapeId tape, TapeId origin, int32_t num_tapes) {
  if (origin < 0) origin = 0;
  return (tape - origin + num_tapes) % num_tapes;
}

}  // namespace

Status SchedulerOptions::Validate() const {
  if (arrival_batch < 0) {
    return Status::InvalidArgument("arrival_batch must be >= 0");
  }
  if (reschedule_epoch < 1) {
    return Status::InvalidArgument("reschedule_epoch must be >= 1");
  }
  return Status::Ok();
}

TapeId SelectTape(TapePolicy policy, const std::vector<TapeCandidate>& tapes,
                  TapeId mounted, Position head, int32_t num_tapes,
                  const ScheduleCost& cost) {
  // Candidates with work, honoring the oldest-request restriction.
  const bool restrict_oldest = policy == TapePolicy::kOldestMaxRequests ||
                               policy == TapePolicy::kOldestMaxBandwidth;
  const auto eligible = [restrict_oldest](const TapeCandidate& c) {
    return c.num_requests() > 0 && (!restrict_oldest || c.serves_oldest);
  };

  const TapeCandidate* best = nullptr;
  int32_t best_rank = num_tapes + 1;
  if (policy == TapePolicy::kRoundRobin) {
    // Next tape in jukebox order strictly after the mounted tape (wrapping;
    // the mounted tape itself is considered last).
    for (const TapeCandidate& c : tapes) {
      if (!eligible(c)) continue;
      // Rank 0 (the mounted tape) maps to num_tapes: visited last.
      int32_t rank = ScanRank(c.tape, mounted, num_tapes);
      if (rank == 0) rank = num_tapes;
      if (rank < best_rank) {
        best_rank = rank;
        best = &c;
      }
    }
    return best == nullptr ? kInvalidTape : best->tape;
  }

  const bool by_bandwidth = policy == TapePolicy::kMaxBandwidth ||
                            policy == TapePolicy::kOldestMaxBandwidth;
  double best_score = -1;
  for (const TapeCandidate& c : tapes) {
    if (!eligible(c)) continue;
    double score;
    if (by_bandwidth) {
      score = cost.EstimateVisit(c.tape, mounted, head, c.positions)
                  .BandwidthMBps();
    } else {
      score = static_cast<double>(c.num_requests());
    }
    const int32_t rank = ScanRank(c.tape, mounted, num_tapes);
    if (score > best_score ||
        (score == best_score && rank < best_rank)) {
      best_score = score;
      best_rank = rank;
      best = &c;
    }
  }
  return best == nullptr ? kInvalidTape : best->tape;
}

Scheduler::Scheduler(const Jukebox* jukebox, const Catalog* catalog,
                     const SchedulerOptions& options)
    : jukebox_(jukebox),
      catalog_(catalog),
      options_(options),
      cost_(&jukebox->model(), jukebox->config().block_size_mb),
      sweeps_(static_cast<size_t>(jukebox->num_drives())) {
  TJ_CHECK(jukebox != nullptr);
  TJ_CHECK(catalog != nullptr);
}

size_t Scheduler::sweep_size() const {
  size_t size = 0;
  for (const Sweep& sweep : sweeps_) size += sweep.size();
  return size;
}

void Scheduler::DropClaimedCandidates() {
  if (sweeps_.size() == 1) return;
  for (TapeCandidate& c : candidates_.tapes()) {
    if (jukebox_->HeldByOtherDrive(c.tape)) c.Clear();
  }
}

void Scheduler::OnArrival(const Request& request, Position committed_head) {
  if (options_.arrival_batch <= 0) {
    OnArrivalNow(request, committed_head);
    return;
  }
  staged_.push_back(request);
  staged_head_ = committed_head;
  // Epoch edge: the arrival that fills the batch flushes it immediately.
  if (static_cast<int32_t>(staged_.size()) >= options_.arrival_batch) {
    FlushArrivals();
  }
}

void Scheduler::FlushArrivals() {
  if (staged_.empty()) return;
  // OnArrivalNow may re-enter scheduling paths that flush again (e.g. a
  // subclass deferring to pending); swap the buffer out first.
  std::vector<Request> batch;
  batch.swap(staged_);
  for (const Request& request : batch) {
    OnArrivalNow(request, staged_head_);
  }
}

void Scheduler::AbsorbStagedToPending() {
  for (const Request& request : staged_) pending_.push_back(request);
  staged_.clear();
}

void Scheduler::RecordDecision(bool background, TapeId chosen,
                               const std::vector<TapeCandidate>& candidates,
                               int64_t envelope_rounds,
                               int64_t tapes_rescored) const {
  if (decision_sink_ == nullptr) return;
  obs::DecisionRecord record;
  record.scheduler = name();
  record.drive = jukebox_->served_drive();
  record.background = background;
  record.chosen = chosen;
  record.mounted = jukebox_->mounted_tape();
  record.pending = static_cast<int64_t>(pending_.size());
  record.background_queue = static_cast<int64_t>(background_.size());
  record.envelope_rounds = envelope_rounds;
  record.tapes_rescored = tapes_rescored;
  const Position head = jukebox_->head();
  for (const TapeCandidate& c : candidates) {
    if (c.num_requests() <= 0) continue;
    obs::TapeCandidateScore score;
    score.tape = c.tape;
    score.num_requests = c.num_requests();
    score.bandwidth_mbps =
        cost_.EstimateVisit(c.tape, record.mounted, head, c.positions)
            .BandwidthMBps();
    score.serves_oldest = c.serves_oldest;
    record.candidates.push_back(score);
  }
  decision_sink_->RecordDecision(record);
}

std::vector<Request> Scheduler::DrainSweep() {
  // A fault is forcing the sweep out mid-batch: staged arrivals go to the
  // pending list (inserting into the sweep being drained would be wasted
  // work — the drain would hand them right back).
  AbsorbStagedToPending();
  std::vector<Request> drained;
  while (std::optional<ServiceEntry> entry = served_sweep().Pop()) {
    for (const Request& request : entry->requests) drained.push_back(request);
  }
  return drained;
}

std::vector<Request> Scheduler::EvictUnservablePending() {
  // Staged arrivals must be visible to the eviction scan (their block may
  // have just lost its last replica).
  AbsorbStagedToPending();
  std::vector<Request> evicted;
  std::deque<Request> keep;
  for (const Request& request : pending_) {
    if (catalog_->HasLiveReplica(request.block)) {
      keep.push_back(request);
    } else {
      evicted.push_back(request);
    }
  }
  pending_ = std::move(keep);
  keep.clear();
  for (const Request& request : background_) {
    if (catalog_->HasLiveReplica(request.block)) {
      keep.push_back(request);
    } else {
      evicted.push_back(request);
    }
  }
  background_ = std::move(keep);
  return evicted;
}

std::vector<Request> Scheduler::EvictExpired(double now) {
  // Staged arrivals can expire before their batch flushes; absorb them so
  // the scan sees every queued request.
  AbsorbStagedToPending();
  std::vector<Request> expired;
  std::deque<Request> keep;
  for (const Request& request : pending_) {
    if (request.deadline > 0 && request.deadline <= now) {
      expired.push_back(request);
    } else {
      keep.push_back(request);
    }
  }
  pending_ = std::move(keep);
  return expired;
}

void Scheduler::EnqueueBackground(const Request& request) {
  TJ_DCHECK(request.cls == RequestClass::kBackground);
  background_.push_back(request);
}

TapeId Scheduler::BackgroundReschedule() {
  if (background_.empty()) return kInvalidTape;
  // Client candidates are empty here, so candidate work is exactly the
  // background queue; max-requests batches the most source reads per
  // mount, which is what repair throughput wants.
  // The oldest-request rule does not apply to background work.
  BuildTapeCandidates(*jukebox_, *catalog_, background_, /*envelope=*/nullptr,
                      &candidates_);
  for (TapeCandidate& c : candidates_.tapes()) c.serves_oldest = false;
  DropClaimedCandidates();
  const TapeId tape =
      SelectTape(TapePolicy::kMaxRequests, candidates_.tapes(),
                 jukebox_->mounted_tape(), jukebox_->head(),
                 jukebox_->num_tapes(), cost_);
  if (tape == kInvalidTape) {
    TJ_CHECK_GT(sweeps_.size(), 1u)
        << "background request with no live replica";
    return kInvalidTape;
  }
  RecordDecision(/*background=*/true, tape, candidates_.tapes());
  ExtractSweepForTape(&candidates_, tape, StartHead(tape), &background_,
                      &served_sweep());
  TJ_CHECK(!served_sweep().empty());
  return tape;
}

void Scheduler::PiggybackBackground(TapeId tape) {
  if (background_.empty()) return;
  const Position start_head = StartHead(tape);
  Sweep& sweep = served_sweep();
  std::deque<Request> keep;
  for (const Request& request : background_) {
    const Replica* replica = catalog_->LiveReplicaOn(request.block, tape);
    if (replica == nullptr ||
        !sweep.InsertRequest(request, replica->position, start_head,
                              options_.allow_reverse_phase)) {
      keep.push_back(request);
    }
  }
  background_ = std::move(keep);
}

}  // namespace tapejuke
