#include "sched/scheduler.h"

#include <algorithm>

#include "sched/sweep_builder.h"
#include "util/check.h"

namespace tapejuke {

std::vector<Field> SchedulerOptions::Fields() {
  return {
      {"allow_reverse_phase", &allow_reverse_phase},
      {"envelope_shrink", &envelope_shrink},
      {"paper_replica_tiebreak", &paper_replica_tiebreak},
      {"validate_envelope", &validate_envelope, {}, {}, false},
      {"arrival_batch", &arrival_batch, AtLeast(0), {}, false},
      {"reschedule_epoch", &reschedule_epoch, AtLeast(1), {}, false},
  };
}

Status SchedulerOptions::Validate() const {
  return CheckFields(FieldsOf(*this));
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
      score = cost.EstimateVisit(c.tape, mounted, head, c.slot_bits)
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
      sweeps_(static_cast<size_t>(jukebox->num_drives()),
              Sweep(jukebox->config().block_size_mb)) {
  TJ_CHECK(jukebox != nullptr);
  TJ_CHECK(catalog != nullptr);
}

size_t Scheduler::sweep_size() const {
  size_t size = 0;
  for (const Sweep& sweep : sweeps_) size += sweep.size();
  return size;
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
  // subclass deferring to pending); swap the buffer out first, and hand its
  // capacity back afterwards so steady-state batching allocates nothing.
  std::vector<Request> batch;
  batch.swap(staged_);
  for (const Request& request : batch) {
    OnArrivalNow(request, staged_head_);
  }
  if (staged_.empty()) {
    batch.clear();
    staged_.swap(batch);
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
        cost_.EstimateVisit(c.tape, record.mounted, head, c.slot_bits)
            .BandwidthMBps();
    score.serves_oldest = c.serves_oldest;
    record.candidates.push_back(score);
  }
  decision_sink_->RecordDecision(record);
}

std::vector<Request> Scheduler::DrainSweep() {
  // A fault is forcing the sweep out mid-batch: staged arrivals go to the
  // pending list (inserting into the sweep being drained would be wasted
  // work — the drain would hand them right back). Drain walks the runs
  // instead of popping, so the entry in flight keeps its requests.
  AbsorbStagedToPending();
  std::vector<Request> drained;
  served_sweep().Drain(&drained);
  return drained;
}

std::vector<Request> Scheduler::EvictUnservablePending() {
  // Staged arrivals must be visible to the eviction scan (their block may
  // have just lost its last replica).
  AbsorbStagedToPending();
  std::vector<Request> evicted;
  const auto unservable = [&](const Request& request) {
    if (catalog_->HasLiveReplica(request.block)) return false;
    evicted.push_back(request);
    return true;
  };
  TakeIf(&pending_, unservable);
  TakeIf(&background_, unservable);
  return evicted;
}

std::vector<Request> Scheduler::EvictExpired(double now) {
  // Staged arrivals can expire before their batch flushes; absorb them so
  // the scan sees every queued request.
  AbsorbStagedToPending();
  std::vector<Request> expired;
  TakeIf(&pending_, [&](const Request& request) {
    if (request.deadline <= 0 || request.deadline > now) return false;
    expired.push_back(request);
    return true;
  });
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
  const TapeId tape = ScheduleVisit(TapePolicy::kMaxRequests, &background_,
                                    /*envelope=*/nullptr);
  if (tape == kInvalidTape) {
    TJ_CHECK_GT(sweeps_.size(), 1u)
        << "background request with no live replica";
  }
  return tape;
}

TapeId Scheduler::ScheduleVisit(TapePolicy policy, std::vector<Request>* queue,
                                const std::vector<Position>* envelope,
                                int64_t envelope_rounds,
                                int64_t tapes_rescored) {
  const bool background = queue == &background_;
  BuildTapeCandidates(*jukebox_, *catalog_, *queue, envelope, &candidates_);
  std::vector<TapeCandidate>& tapes = candidates_.tapes();
  if (background) {
    for (TapeCandidate& c : tapes) c.serves_oldest = false;
  }
  if (sweeps_.size() > 1) {
    for (TapeCandidate& c : tapes) {
      if (jukebox_->HeldByOtherDrive(c.tape)) c.Clear();
    }
  }
  const TapeId tape = SelectTape(policy, tapes, jukebox_->mounted_tape(),
                                 jukebox_->head(), jukebox_->num_tapes(), cost_);
  if (tape == kInvalidTape) return kInvalidTape;
  RecordDecision(background, tape, tapes, envelope_rounds, tapes_rescored);
  ExtractSweepForTape(&candidates_, tape, StartHead(tape), queue,
                      &served_sweep());
  TJ_CHECK(!served_sweep().empty());
  if (!background) PiggybackBackground(tape);
  return tape;
}

void Scheduler::PiggybackBackground(TapeId tape) {
  if (background_.empty()) return;
  const Position start_head = StartHead(tape);
  Sweep& sweep = served_sweep();
  TakeIf(&background_, [&](const Request& request) {
    const Replica* replica = catalog_->LiveReplicaOn(request.block, tape);
    return replica != nullptr &&
           sweep.InsertRequest(request, replica->position, start_head,
                               options_.allow_reverse_phase);
  });
}

}  // namespace tapejuke
