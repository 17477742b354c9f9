#include "sim/multi_drive.h"

#include <algorithm>
#include <iostream>
#include <limits>
#include <string>

#include "sched/sweep_builder.h"
#include "util/check.h"

namespace tapejuke {

Status MultiDriveConfig::Validate() const {
  if (num_drives < 1) {
    return Status::InvalidArgument("need at least one drive");
  }
  return Status::Ok();
}

MultiDriveSimulator::MultiDriveSimulator(Jukebox* jukebox,
                                         const Catalog* catalog,
                                         const MultiDriveConfig& drives,
                                         const SimulationConfig& sim)
    : jukebox_(jukebox),
      catalog_(catalog),
      drives_config_(drives),
      sim_config_(sim),
      workload_(catalog, sim.workload),
      metrics_(sim.warmup_seconds, jukebox->config().block_size_mb),
      cost_(&jukebox->model(), jukebox->config().block_size_mb),
      accounting_(drives.num_drives, sim.warmup_seconds) {
  TJ_CHECK(jukebox != nullptr);
  TJ_CHECK(catalog != nullptr);
  Status status = drives.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK_LE(drives.num_drives, jukebox->num_tapes())
      << "more drives than tapes is pointless";
  status = sim.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK(!sim.faults.enabled())
      << "fault injection requires the mutable-catalog MultiDriveSimulator "
         "constructor (permanent media errors mask catalog replicas)";
  TJ_CHECK(!sim.repair.enabled())
      << "scrub/repair is single-drive only (use Simulator)";
  drives_.reserve(static_cast<size_t>(drives.num_drives));
  for (int32_t d = 0; d < drives.num_drives; ++d) {
    drives_.emplace_back(&jukebox->model());
  }
  if (sim_config_.obs.enabled()) {
    recorder_.emplace(sim_config_.obs);
    recorder_->SetTopology("jukebox", drives_config_.num_drives);
    accounting_.set_recorder(&*recorder_);
  }
  if (sim_config_.workload.HasTenantClasses()) {
    metrics_.ConfigureClasses(
        static_cast<int>(sim_config_.workload.tenant_classes.size()));
    for (const TenantClassConfig& cls : sim_config_.workload.tenant_classes) {
      if (cls.deadline_seconds > 0) deadlines_possible_ = true;
    }
  }
  if (sim_config_.admission.enabled()) {
    admission_.emplace(sim_config_.admission,
                       sim_config_.workload.tenant_classes);
  }
  SetupTimeline();
}

MultiDriveSimulator::MultiDriveSimulator(Jukebox* jukebox, Catalog* catalog,
                                         const MultiDriveConfig& drives,
                                         const SimulationConfig& sim)
    : jukebox_(jukebox),
      catalog_(catalog),
      mutable_catalog_(catalog),
      drives_config_(drives),
      sim_config_(sim),
      workload_(catalog, sim.workload),
      metrics_(sim.warmup_seconds, jukebox->config().block_size_mb),
      cost_(&jukebox->model(), jukebox->config().block_size_mb),
      accounting_(drives.num_drives, sim.warmup_seconds) {
  TJ_CHECK(jukebox != nullptr);
  TJ_CHECK(catalog != nullptr);
  Status status = drives.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK_LE(drives.num_drives, jukebox->num_tapes())
      << "more drives than tapes is pointless";
  status = sim.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK(!sim.repair.enabled())
      << "scrub/repair is single-drive only (use Simulator)";
  drives_.reserve(static_cast<size_t>(drives.num_drives));
  for (int32_t d = 0; d < drives.num_drives; ++d) {
    drives_.emplace_back(&jukebox->model());
  }
  if (sim_config_.obs.enabled()) {
    recorder_.emplace(sim_config_.obs);
    recorder_->SetTopology("jukebox", drives_config_.num_drives);
    accounting_.set_recorder(&*recorder_);
  }
  if (sim_config_.faults.enabled()) {
    faults_.emplace(sim_config_.faults, sim_config_.workload.seed);
    if (sim_config_.faults.drive_mtbf_seconds > 0) {
      drive_faults_ = true;
      // Epochs drawn in drive order so the fault stream is deterministic.
      for (DriveState& ds : drives_) {
        ds.next_failure = faults_->NextFailureGap();
      }
    }
  }
  if (sim_config_.workload.HasTenantClasses()) {
    metrics_.ConfigureClasses(
        static_cast<int>(sim_config_.workload.tenant_classes.size()));
    for (const TenantClassConfig& cls : sim_config_.workload.tenant_classes) {
      if (cls.deadline_seconds > 0) deadlines_possible_ = true;
    }
  }
  if (sim_config_.admission.enabled()) {
    admission_.emplace(sim_config_.admission,
                       sim_config_.workload.tenant_classes);
  }
  SetupTimeline();
}

void MultiDriveSimulator::SetupTimeline() {
  if (!sim_config_.timeline.enabled()) return;
  timeline_.emplace(sim_config_.timeline);
  obs::StatRegistry* reg = timeline_->registry();
  reg->AddGauge("queue_depth", [this] {
    return static_cast<double>(pending_.size());
  });
  reg->AddGauge("sweep_depth", [this] {
    size_t depth = 0;
    for (const DriveState& ds : drives_) depth += ds.sweep.size();
    return static_cast<double>(depth);
  });
  reg->AddGauge("shed_level", [this] {
    return admission_.has_value() ? static_cast<double>(admission_->shed_level())
                                  : 0.0;
  });
  reg->AddGauge("live_replica_fraction", [this] {
    const int64_t total = catalog_->TotalCopies();
    if (total <= 0) return 1.0;
    return static_cast<double>(total - catalog_->dead_replicas()) /
           static_cast<double>(total);
  });
  // Scrub/repair is single-drive only; the gauge stays so the schema is
  // uniform across simulators.
  reg->AddGauge("repair_backlog", [] { return 0.0; });
  metrics_.AttachTimeline(reg);
  for (int s = 0; s < obs::kNumDriveActivities; ++s) {
    const std::string name =
        std::string("state_") +
        obs::DriveActivityName(static_cast<obs::DriveActivity>(s));
    reg->AddAccum(name, [this, s] {
      double total = 0;
      for (const obs::DriveTimeInState& drive : accounting_.per_drive()) {
        total += drive.seconds[static_cast<size_t>(s)];
      }
      return total;
    });
  }
}

bool MultiDriveSimulator::ClaimedElsewhere(TapeId tape, int self) const {
  for (size_t d = 0; d < drives_.size(); ++d) {
    if (static_cast<int>(d) != self && drives_[d].claim == tape) {
      return true;
    }
  }
  return false;
}

void MultiDriveSimulator::BeginNextRead(int d, double now) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  std::optional<ServiceEntry> entry = ds.sweep.Pop();
  TJ_CHECK(entry.has_value());
  const int64_t block_mb = jukebox_->config().block_size_mb;
  const double locate = ds.unit.LocateTo(entry->position);
  counters_.locate_seconds += locate;
  const double read = ds.unit.Read(block_mb);
  counters_.read_seconds += read;
  ++counters_.blocks_read;
  counters_.mb_read += block_mb;
  double op_seconds = locate + read;
  double op_t = now + locate;
  ds.pending_charge.emplace_back(obs::DriveActivity::kLocating, op_t);
  op_t += read;
  ds.pending_charge.emplace_back(obs::DriveActivity::kReading, op_t);
  ReadOutcome outcome;
  if (faults_.has_value()) {
    outcome = faults_->NextReadOutcome();
    // Each transient retry locates back to the block start and re-reads,
    // after an optional exponential-backoff wait (charged as locating so
    // the drive stays visibly occupied by the faulted operation).
    for (int r = 0; r < outcome.retries; ++r) {
      const double backoff = faults_->NextRetryBackoff(r);
      if (backoff > 0) {
        op_seconds += backoff;
        op_t += backoff;
        ds.pending_charge.emplace_back(obs::DriveActivity::kLocating, op_t);
      }
      const double back = ds.unit.LocateTo(entry->position);
      counters_.locate_seconds += back;
      const double again = ds.unit.Read(block_mb);
      counters_.read_seconds += again;
      ++counters_.blocks_read;
      counters_.mb_read += block_mb;
      op_seconds += back + again;
      op_t += back;
      ds.pending_charge.emplace_back(obs::DriveActivity::kLocating, op_t);
      op_t += again;
      ds.pending_charge.emplace_back(obs::DriveActivity::kReading, op_t);
    }
    fault_stats_.transient_read_errors +=
        outcome.retries + (outcome.escalated ? 1 : 0);
    fault_stats_.read_retries += outcome.retries;
    if (outcome.escalated) ++fault_stats_.reads_escalated;
  }
  const double end = now + op_seconds;
  // Absorb accumulation drift between the per-segment sums and op_seconds
  // into the final reading segment, so the flush lands exactly on the
  // completion event's timestamp.
  ds.pending_charge.back().second = end;
  if (recorder_.has_value() && outcome.retries > 0) {
    for (const Request& request : entry->requests) {
      recorder_->RequestRetry(request.id, outcome.retries, end);
    }
  }
  ds.committed_head = ds.unit.head();
  ds.in_flight = std::move(entry);
  ds.in_flight_outcome = outcome;
  ds.busy = true;
  events_.Schedule(end, d);
}

void MultiDriveSimulator::Dispatch(int d, double now) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  if (ds.busy) return;
  // The gap since the drive's last charged activity was spent idle.
  accounting_.ChargeTo(d, obs::DriveActivity::kIdle, now);
  if (drive_faults_ && ds.next_failure <= now) {
    // A failure epoch the clock has passed is charged lazily, when the
    // drive next acts (mirrors the single-drive simulator).
    FailDrive(d, now);
    return;
  }
  if (!ds.sweep.empty()) {
    BeginNextRead(d, now);
    return;
  }
  if (pending_.empty()) return;

  // Candidates over unclaimed tapes only: a tape another drive holds
  // offers nothing to this one.
  const int32_t num_tapes = jukebox_->num_tapes();
  BuildTapeCandidates(*jukebox_, *catalog_, pending_, /*envelope=*/nullptr,
                      &candidates_);
  bool saw_claimed_work = false;
  for (TapeCandidate& c : candidates_.tapes()) {
    if (!ClaimedElsewhere(c.tape, d)) continue;
    saw_claimed_work |= c.num_requests() > 0;
    c.Clear();
  }
  const TapeId mounted = ds.unit.loaded_tape();
  const TapeId tape =
      SelectTape(drives_config_.policy, candidates_.tapes(), mounted,
                 ds.unit.head(), num_tapes, cost_);
  if (tape == kInvalidTape) {
    // Work exists but only on tapes other drives hold: idle until a claim
    // releases (WakeIdleDrives retries after every event).
    if (saw_claimed_work) ++stats_.claim_conflicts;
    return;
  }

  if (recorder_.has_value()) {
    RecordDispatchDecision(d, tape, mounted, candidates_.tapes(), now);
  }

  const Position start_head = (tape == mounted) ? ds.unit.head() : 0;
  ExtractSweepForTape(&candidates_, tape, start_head, &pending_, &ds.sweep);
  TJ_CHECK(!ds.sweep.empty());
  ds.claim = tape;
  TraceSweepContents(d, tape, now);

  if (tape == mounted) {
    ds.committed_head = ds.unit.head();
    BeginNextRead(d, now);
    return;
  }

  // Tape switch: drive-local rewind + eject run in parallel with other
  // drives; the robot arm swap is serialized; the load is drive-local.
  double local_done = now;
  if (ds.unit.has_tape()) {
    const double rewind = ds.unit.Rewind();
    counters_.rewind_seconds += rewind;
    const double eject = ds.unit.Eject();
    counters_.switch_seconds += eject;
    ds.pending_charge.emplace_back(obs::DriveActivity::kRewinding,
                                   now + rewind);
    local_done += rewind + eject;
    ds.pending_charge.emplace_back(obs::DriveActivity::kSwitching,
                                   local_done);
  }
  const double robot_start = std::max(local_done, robot_free_at_);
  stats_.robot_wait_seconds += robot_start - local_done;
  const double robot_seconds = jukebox_->model().params().robot_seconds;
  double robot_busy = robot_seconds;
  if (faults_.has_value()) {
    // Robot handoff faults: each slip repeats the robot move, extending
    // the serialized arm occupancy other drives queue behind.
    const int slips = faults_->NextRobotFaults();
    if (slips > 0) {
      const double extra = slips * robot_seconds;
      fault_stats_.robot_faults += slips;
      fault_stats_.robot_retry_seconds += extra;
      counters_.switch_seconds += extra;
      robot_busy += extra;
    }
  }
  robot_free_at_ = robot_start + robot_busy;
  counters_.switch_seconds += robot_seconds;
  const double load = ds.unit.Load(tape);
  counters_.switch_seconds += load;
  ++counters_.tape_switches;
  // The robot state covers both the queue wait and the (possibly
  // fault-extended) serialized arm occupancy; the drive-local load is a
  // switching segment ending exactly on the completion event.
  ds.pending_charge.emplace_back(obs::DriveActivity::kRobot, robot_free_at_);
  ds.pending_charge.emplace_back(obs::DriveActivity::kSwitching,
                                 robot_free_at_ + load);
  ds.committed_head = 0;
  ds.busy = true;
  events_.Schedule(robot_free_at_ + load, d);
}

void MultiDriveSimulator::Route(const Request& request, double now) {
  (void)now;
  if (drives_config_.dynamic_insertion) {
    for (DriveState& ds : drives_) {
      if (ds.sweep.empty() || ds.claim == kInvalidTape) continue;
      const Replica* replica =
          catalog_->LiveReplicaOn(request.block, ds.claim);
      if (replica != nullptr &&
          ds.sweep.InsertRequest(request, replica->position,
                                 ds.committed_head,
                                 drives_config_.options
                                     .allow_reverse_phase)) {
        return;
      }
    }
  }
  pending_.push_back(request);
}

bool MultiDriveSimulator::DeliverOrFail(const Request& request, double now) {
  metrics_.OnArrival(now);
  if (recorder_.has_value() && recorder_->SampleRequest(request.id)) {
    recorder_->RequestArrived(request.id, request.block,
                              /*background=*/false, now);
  }
  if (faults_.has_value() && !catalog_->HasLiveReplica(request.block)) {
    if (recorder_.has_value()) {
      recorder_->RequestDone(request.id, obs::RequestOutcome::kFailed, now);
    }
    metrics_.OnFailure(request.arrival_time, now);
    return false;
  }
  Route(request, now);
  TrackDeadline(request);
  return true;
}

void MultiDriveSimulator::IssueClosedRequest(double now) {
  // Draw until a servable request is issued. A draw for a block whose
  // every replica is dead completes instantly with an error (counted as
  // issued + failed, so conservation holds) and the process retries; once
  // the whole archive is lost the process stops issuing.
  while (true) {
    if (DeliverOrFail(workload_.NextRequest(now), now)) return;
    if (!catalog_->HasAnyLive()) return;
  }
}

void MultiDriveSimulator::FailRequest(const Request& request, double now) {
  if (deadlines_possible_) deadline_live_.erase(request.id);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kFailed, now);
  }
  metrics_.OnFailure(request.arrival_time, now);
  if (closed_) IssueClosedRequest(now);
}

void MultiDriveSimulator::Requeue(const std::vector<Request>& requests,
                                  double now) {
  for (const Request& request : requests) {
    if (request.deadline > 0 && request.deadline <= now) {
      // The fault drained a sweep holding an already-past-deadline request
      // (its expiry event fired while it was committed and was skipped).
      // Re-enqueueing it would lose the expiry forever, so settle it now.
      ExpireRequest(request, now);
      continue;
    }
    if (catalog_->HasLiveReplica(request.block)) {
      ++fault_stats_.failovers;
      if (recorder_.has_value()) {
        recorder_->RequestFailover(request.id, now);
      }
      pending_.push_back(request);
    } else {
      FailRequest(request, now);
    }
  }
}

void MultiDriveSimulator::EvictUnservablePending(double now) {
  std::vector<Request> dead;
  std::deque<Request> keep;
  for (const Request& request : pending_) {
    if (catalog_->HasLiveReplica(request.block)) {
      keep.push_back(request);
    } else {
      dead.push_back(request);
    }
  }
  pending_.swap(keep);
  // Failed after the swap: closed-model regeneration pushes into pending_.
  for (const Request& request : dead) FailRequest(request, now);
}

void MultiDriveSimulator::TrackDeadline(const Request& request) {
  if (request.deadline <= 0) return;
  deadline_live_.insert(request.id);
  expiries_.Schedule(request.deadline, request.id);
}

void MultiDriveSimulator::ExpireRequest(const Request& request, double now) {
  deadline_live_.erase(request.id);
  metrics_.OnExpired(request.arrival_time, now, request.tenant);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kExpired, now);
  }
  if (closed_) {
    // The issuing process moves on exactly as it would after a completion.
    if (faults_.has_value()) {
      IssueClosedRequest(now);
    } else {
      DeliverOrFail(workload_.NextRequest(now), now);
    }
  }
}

void MultiDriveSimulator::ExpirePendingPastDeadline(double now) {
  std::vector<Request> expired;
  std::deque<Request> keep;
  for (const Request& request : pending_) {
    if (request.deadline > 0 && request.deadline <= now) {
      expired.push_back(request);
    } else {
      keep.push_back(request);
    }
  }
  pending_.swap(keep);
  // Settled after the swap: closed-model regeneration pushes into pending_.
  for (const Request& request : expired) ExpireRequest(request, now);
}

void MultiDriveSimulator::HandlePermanentError(int d,
                                               const ServiceEntry& entry,
                                               bool whole_tape, double now) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  const TapeId tape = ds.claim;
  TJ_CHECK_NE(tape, kInvalidTape);
  ++fault_stats_.permanent_media_errors;
  if (whole_tape) {
    ++fault_stats_.dead_tapes;
    std::vector<BlockId> newly_masked;
    fault_stats_.replicas_masked +=
        mutable_catalog_->MarkTapeDead(tape, &newly_masked);
    for (const BlockId block : newly_masked) {
      if (!catalog_->HasLiveReplica(block)) ++fault_stats_.blocks_lost;
    }
    // The rest of this drive's sweep read the dead tape (claims are
    // exclusive, so no other drive's sweep does); fail each request over
    // to a surviving replica.
    while (!ds.sweep.empty()) {
      Requeue(ds.sweep.Pop()->requests, now);
    }
  } else if (mutable_catalog_->MarkReplicaDead(entry.block, tape)) {
    ++fault_stats_.replicas_masked;
    if (!catalog_->HasLiveReplica(entry.block)) ++fault_stats_.blocks_lost;
  }
  Requeue(entry.requests, now);
  EvictUnservablePending(now);
}

void MultiDriveSimulator::FailDrive(int d, double now) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  ++fault_stats_.drive_failures;
  const double repair = faults_->NextRepairTime();
  fault_stats_.drive_repair_seconds += repair;
  // Void in-flight work and hand everything back to the shared pending
  // list so surviving drives pick it up. The tape stays jammed in this
  // drive — the claim is kept, so requests living only on it wait out the
  // repair (claim conflicts, not deadlock: the repair event is scheduled).
  if (ds.in_flight.has_value()) {
    const ServiceEntry entry = std::move(*ds.in_flight);
    ds.in_flight.reset();
    ds.in_flight_outcome = ReadOutcome{};
    Requeue(entry.requests, now);
  }
  while (!ds.sweep.empty()) {
    Requeue(ds.sweep.Pop()->requests, now);
  }
  ds.busy = true;
  // The repair interval is down time, charged when its event fires.
  ds.pending_charge.emplace_back(obs::DriveActivity::kDown, now + repair);
  ds.next_failure = now + repair + faults_->NextFailureGap();
  events_.Schedule(now + repair, drives_config_.num_drives + d);
}

void MultiDriveSimulator::WakeIdleDrives(double now) {
  for (size_t d = 0; d < drives_.size(); ++d) {
    if (!drives_[d].busy) Dispatch(static_cast<int>(d), now);
  }
}

void MultiDriveSimulator::FlushCharges(int d, double limit) {
  DriveState& ds = drives_[static_cast<size_t>(d)];
  for (const auto& [activity, end] : ds.pending_charge) {
    accounting_.ChargeTo(d, activity, std::min(end, limit));
  }
  ds.pending_charge.clear();
}

void MultiDriveSimulator::RecordDispatchDecision(
    int d, TapeId chosen, TapeId mounted,
    const std::vector<TapeCandidate>& candidates, double now) {
  obs::DecisionRecord record;
  record.scheduler =
      std::string("multi-drive ") + TapePolicyName(drives_config_.policy);
  record.drive = d;
  record.chosen = chosen;
  record.mounted = mounted;
  record.pending = static_cast<int64_t>(pending_.size());
  const Position head = drives_[static_cast<size_t>(d)].unit.head();
  for (const TapeCandidate& c : candidates) {
    if (c.num_requests() <= 0) continue;
    obs::TapeCandidateScore score;
    score.tape = c.tape;
    score.num_requests = c.num_requests();
    score.bandwidth_mbps =
        cost_.EstimateVisit(c.tape, mounted, head, c.positions)
            .BandwidthMBps();
    score.serves_oldest = c.serves_oldest;
    record.candidates.push_back(score);
  }
  recorder_->SetNow(now);
  recorder_->RecordDecision(record);
}

void MultiDriveSimulator::TraceSweepContents(int d, TapeId tape, double now) {
  if (!recorder_.has_value() || !recorder_->trace_enabled()) return;
  const Sweep& sweep = drives_[static_cast<size_t>(d)].sweep;
  for (const ServiceEntry& entry : sweep.forward()) {
    for (const Request& request : entry.requests) {
      recorder_->RequestScheduled(request.id, tape, now);
    }
  }
  for (const ServiceEntry& entry : sweep.reverse()) {
    for (const Request& request : entry.requests) {
      recorder_->RequestScheduled(request.id, tape, now);
    }
  }
}

SimulationResult MultiDriveSimulator::Run() {
  TJ_CHECK(!ran_) << "Run may be called once";
  ran_ = true;
  closed_ = sim_config_.workload.model == QueuingModel::kClosed;
  constexpr double kInf = std::numeric_limits<double>::infinity();

  if (closed_) {
    for (int64_t i = 0; i < sim_config_.workload.queue_length; ++i) {
      DeliverOrFail(workload_.NextRequest(0.0), 0.0);
    }
  } else {
    next_arrival_ = workload_.NextArrivalGap(0.0);
  }
  WakeIdleDrives(0.0);
  if (sim_config_.warmup_seconds == 0) {
    warmup_marked_ = true;
    metrics_.MarkWarmupBoundary(counters_);
  }

  while (clock_ < sim_config_.duration_seconds) {
    const double event_time = events_.empty() ? kInf : events_.NextTime();
    const double arrival_time = closed_ ? kInf : next_arrival_;
    const double expiry_time = (deadlines_possible_ && !expiries_.empty())
                                   ? expiries_.NextTime()
                                   : kInf;
    const double next = std::min({event_time, arrival_time, expiry_time});
    if (next == kInf || next > sim_config_.duration_seconds) break;
    // Timeline samples due before the next event read the state as of
    // their sample time. Pure observation: the sampler never advances
    // clock_, wakes a drive, or marks warm-up, so results are unchanged.
    if (timeline_.has_value()) timeline_->SampleUpTo(next);
    clock_ = next;

    if (expiry_time <= event_time && expiry_time <= arrival_time) {
      const auto [time, id] = expiries_.Pop();
      (void)time;
      // Stale events (the request completed, failed, or was evicted by an
      // earlier scan) are skipped; requests already extracted into a
      // drive's sweep are committed and left to complete normally.
      if (deadline_live_.contains(id)) ExpirePendingPastDeadline(clock_);
    } else if (arrival_time <= event_time) {
      const Request request = workload_.NextRequest(clock_);
      if (admission_.has_value() &&
          !admission_->Admit(request.tenant, clock_,
                             metrics_.outstanding_now())) {
        metrics_.OnShed(clock_, request.tenant);
        if (recorder_.has_value() && recorder_->SampleRequest(request.id)) {
          recorder_->RequestArrived(request.id, request.block,
                                    /*background=*/false, clock_);
          recorder_->RequestDone(request.id, obs::RequestOutcome::kShed,
                                 clock_);
        }
      } else {
        DeliverOrFail(request, clock_);
      }
      next_arrival_ = clock_ + workload_.NextArrivalGap(clock_);
    } else {
      const auto [time, payload] = events_.Pop();
      (void)time;
      if (payload >= drives_config_.num_drives) {
        // Repair complete: the drive rejoins the farm.
        const int d = payload - drives_config_.num_drives;
        FlushCharges(d, clock_);
        drives_[static_cast<size_t>(d)].busy = false;
        Dispatch(d, clock_);
      } else {
        const int d = payload;
        DriveState& ds = drives_[static_cast<size_t>(d)];
        FlushCharges(d, clock_);
        if (drive_faults_ && ds.next_failure <= clock_) {
          // The drive failed during this operation: void it and repair.
          FailDrive(d, clock_);
        } else {
          ds.busy = false;
          if (ds.in_flight.has_value()) {
            const ServiceEntry entry = std::move(*ds.in_flight);
            ds.in_flight.reset();
            const ReadOutcome outcome = ds.in_flight_outcome;
            ds.in_flight_outcome = ReadOutcome{};
            if (outcome.permanent_error) {
              HandlePermanentError(d, entry, outcome.whole_tape, clock_);
            } else {
              for (const Request& request : entry.requests) {
                if (faults_.has_value() &&
                    catalog_->LiveReplicaCount(request.block) <
                        static_cast<int64_t>(
                            catalog_->ReplicasOf(request.block).size())) {
                  ++fault_stats_.degraded_reads;
                }
                if (recorder_.has_value()) {
                  recorder_->RequestDone(request.id,
                                         obs::RequestOutcome::kCompleted,
                                         clock_);
                }
                metrics_.OnCompletion(request.arrival_time, clock_,
                                      request.tenant);
                if (admission_.has_value()) {
                  admission_->OnCompletion(request.tenant,
                                           clock_ - request.arrival_time,
                                           clock_);
                }
                if (deadlines_possible_) deadline_live_.erase(request.id);
                if (closed_) {
                  if (faults_.has_value()) {
                    IssueClosedRequest(clock_);
                  } else {
                    DeliverOrFail(workload_.NextRequest(clock_), clock_);
                  }
                }
              }
            }
          }
          Dispatch(d, clock_);
        }
      }
    }
    WakeIdleDrives(clock_);
    if (!warmup_marked_ && clock_ >= sim_config_.warmup_seconds) {
      warmup_marked_ = true;
      metrics_.MarkWarmupBoundary(counters_);
    }
  }
  if (!warmup_marked_) metrics_.MarkWarmupBoundary(counters_);
  // Clip the segments of operations still in flight at the final clock
  // (their completion events never fired), then close every drive's
  // interval so per-drive state time sums to the measured window.
  for (size_t d = 0; d < drives_.size(); ++d) {
    FlushCharges(static_cast<int>(d), clock_);
  }
  accounting_.FinishAt(clock_);
  if (timeline_.has_value()) {
    // After accounting_.FinishAt so the final row's time-in-state deltas
    // cover the whole run. Timeline output must never fail the run.
    const Status timeline_status = timeline_->FinishAt(clock_);
    if (!timeline_status.ok()) {
      std::cerr << "warning: timeline output failed: "
                << timeline_status.ToString() << "\n";
    }
  }
  SimulationResult result = metrics_.Finalize(clock_, counters_, &accounting_);
  if (faults_.has_value()) {
    result.fault_injection = true;
    result.faults = fault_stats_;
    const int64_t total = catalog_->TotalCopies();
    if (total > 0) {
      result.live_replica_fraction =
          static_cast<double>(total - catalog_->dead_replicas()) /
          static_cast<double>(total);
    }
  }
  if (recorder_.has_value()) {
    const Status obs_status = recorder_->Finalize(clock_);
    if (!obs_status.ok()) {
      std::cerr << "warning: observability output failed: "
                << obs_status.ToString() << "\n";
    }
  }
  return result;
}

}  // namespace tapejuke
