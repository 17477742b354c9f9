#include "sim/simulator.h"

#include <algorithm>
#include <iostream>
#include <limits>

#include "util/check.h"

namespace tapejuke {

Status SimulationConfig::Validate() const {
  if (duration_seconds <= 0) {
    return Status::InvalidArgument("duration must be positive");
  }
  if (obs.sample < 1) {
    return Status::InvalidArgument("trace sample must be >= 1");
  }
  if (timeline.interval_seconds < 0) {
    return Status::InvalidArgument("timeline interval must be >= 0");
  }
  if (!timeline.out.empty() && timeline.interval_seconds <= 0) {
    return Status::InvalidArgument(
        "timeline output requires a positive --timeline-interval");
  }
  if (warmup_seconds < 0 || warmup_seconds >= duration_seconds) {
    return Status::InvalidArgument(
        "warmup must be in [0, duration_seconds)");
  }
  const Status fault_status = faults.Validate();
  if (!fault_status.ok()) return fault_status;
  const Status repair_status = repair.Validate();
  if (!repair_status.ok()) return repair_status;
  if (repair.enabled() && !faults.enabled()) {
    return Status::InvalidArgument(
        "scrub/repair requires fault injection (config.faults)");
  }
  const Status admission_status = admission.Validate(workload);
  if (!admission_status.ok()) return admission_status;
  return workload.Validate();
}

Simulator::Simulator(Jukebox* jukebox, const Catalog* catalog,
                     Scheduler* scheduler, const SimulationConfig& config,
                     BackgroundWork* background)
    : Simulator(jukebox, catalog, /*mutable_catalog=*/nullptr, scheduler,
                config, background) {}

Simulator::Simulator(Jukebox* jukebox, Catalog* catalog, Scheduler* scheduler,
                     const SimulationConfig& config)
    : Simulator(jukebox, catalog, catalog, scheduler, config,
                /*background=*/nullptr) {}

Simulator::Simulator(Jukebox* jukebox, const Catalog* catalog,
                     Catalog* mutable_catalog, Scheduler* scheduler,
                     const SimulationConfig& config,
                     BackgroundWork* background)
    : jukebox_(jukebox),
      catalog_(catalog),
      mutable_catalog_(mutable_catalog),
      scheduler_(scheduler),
      config_(config),
      workload_(catalog, config.workload),
      metrics_(config.warmup_seconds, jukebox->config().block_size_mb),
      accounting_(jukebox->num_drives(), config.warmup_seconds),
      background_(background),
      drives_(static_cast<size_t>(jukebox->num_drives())) {
  TJ_CHECK(jukebox != nullptr);
  TJ_CHECK(catalog != nullptr);
  TJ_CHECK(scheduler != nullptr);
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK(mutable_catalog_ != nullptr || !config.faults.enabled())
      << "fault injection requires the mutable-catalog Simulator "
         "constructor (permanent media errors mask catalog replicas)";
  if (config_.obs.enabled()) {
    recorder_.emplace(config_.obs);
    recorder_->SetTopology("jukebox", jukebox_->num_drives());
    accounting_.set_recorder(&*recorder_);
    scheduler_->set_decision_sink(&*recorder_);
  }
  if (config_.faults.enabled()) {
    faults_.emplace(config_.faults, config_.workload.seed);
    if (config_.faults.drive_mtbf_seconds > 0) {
      drive_faults_ = true;
      // Epochs drawn in drive order so the fault stream is deterministic.
      for (DriveState& drive : drives_) {
        drive.next_failure = faults_->NextFailureGap();
      }
    }
    if (config_.repair.enabled()) {
      repair_.emplace(config_.repair, jukebox_, mutable_catalog_, scheduler_,
                      &*faults_, &fault_stats_);
      if (recorder_.has_value()) repair_->set_recorder(&*recorder_);
      background_ = &*repair_;
    }
  }
  if (config_.workload.HasTenantClasses()) {
    metrics_.ConfigureClasses(
        static_cast<int>(config_.workload.tenant_classes.size()));
    for (const TenantClassConfig& cls : config_.workload.tenant_classes) {
      if (cls.deadline_seconds > 0) deadlines_possible_ = true;
    }
  }
  if (config_.admission.enabled()) {
    admission_.emplace(config_.admission, config_.workload.tenant_classes);
  }
  SetupTimeline();
}

Simulator::Simulator(Jukebox* jukebox, const Catalog* catalog,
                     Scheduler* scheduler, const SimulationConfig& config,
                     std::vector<Request> trace)
    : Simulator(jukebox, catalog, scheduler, config) {
  trace_mode_ = true;
  trace_ = std::move(trace);
  RequestId next_id = 0;
  double previous = 0;
  for (Request& request : trace_) {
    TJ_CHECK_GE(request.arrival_time, previous)
        << "trace arrivals must be time-ordered";
    previous = request.arrival_time;
    TJ_CHECK(request.block >= 0 && request.block < catalog->num_blocks())
        << "trace references unknown block" << request.block;
    request.id = next_id++;
    if (request.deadline > 0) deadlines_possible_ = true;
  }
}

bool Simulator::DeliverOrFail(const Request& request,
                              Position committed_head) {
  if (recorder_.has_value()) {
    recorder_->RequestArrived(request.id, request.block,
                              /*background=*/false, request.arrival_time);
  }
  if (faults_.has_value() && !catalog_->HasLiveReplica(request.block)) {
    metrics_.OnFailure(request.arrival_time, request.arrival_time);
    if (recorder_.has_value()) {
      recorder_->RequestDone(request.id, obs::RequestOutcome::kFailed,
                             request.arrival_time);
    }
    return false;
  }
  scheduler_->OnArrival(request, committed_head);
  TrackDeadline(request);
  return true;
}

void Simulator::TrackDeadline(const Request& request) {
  if (request.deadline <= 0) return;
  deadline_live_.insert(request.id);
  expiries_.Schedule(request.deadline, request.id);
}

void Simulator::ExpireRequest(const Request& request, double now,
                              Position committed_head) {
  deadline_live_.erase(request.id);
  metrics_.OnExpired(request.arrival_time, now, request.tenant);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kExpired, now);
  }
  if (closed_) {
    // The issuing process moves on exactly as it would after a completion.
    if (config_.workload.think_time_seconds > 0) {
      thinking_.Schedule(now + workload_.NextThinkTime(), 0);
    } else {
      IssueClosedRequest(now, committed_head);
    }
  }
}

void Simulator::ProcessExpiriesUpTo(double until, Position committed_head) {
  if (!deadlines_possible_ && !timeline_.has_value()) return;
  if (deadlines_possible_) {
    while (auto event = expiries_.PopUntil(until)) {
      // Timeline samples due before this expiry read the queue state as it
      // was at their sample time, keeping rows in strict time order.
      if (timeline_.has_value()) timeline_->SampleUpTo(event->first);
      // Stale events (the request completed, failed, or was evicted by an
      // earlier sweep) are skipped; requests currently inside the active
      // sweep are left to finish and their event simply expires unused.
      if (!deadline_live_.contains(event->second)) continue;
      for (const Request& request : scheduler_->EvictExpired(event->first)) {
        ExpireRequest(request, event->first, committed_head);
      }
    }
  }
  // This runs before every clock advance (each run-loop path delivers
  // arrivals up to its end time first), so sampling here covers the whole
  // run; a sample due exactly at `until` fires before that event settles.
  if (timeline_.has_value()) timeline_->SampleUpTo(until);
}

void Simulator::IssueClosedRequest(double now, Position committed_head) {
  // Draw until a servable request is issued. A draw for a block whose
  // every replica is dead completes instantly with an error (counted as
  // issued + failed, so conservation holds) and the process retries; once
  // the whole archive is lost the process stops issuing.
  while (true) {
    const Request request = workload_.NextRequest(now);
    metrics_.OnArrival(now);
    if (DeliverOrFail(request, committed_head)) return;
    if (!catalog_->HasAnyLive()) return;
  }
}

void Simulator::FailRequest(const Request& request) {
  if (deadlines_possible_) deadline_live_.erase(request.id);
  metrics_.OnFailure(request.arrival_time, clock_);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kFailed, clock_);
  }
  if (closed_) {
    // The issuing process continues: it issues its next request,
    // immediately or after a think period, exactly as on completion.
    if (config_.workload.think_time_seconds > 0) {
      thinking_.Schedule(clock_ + workload_.NextThinkTime(), 0);
    } else {
      IssueClosedRequest(clock_, jukebox_->head());
    }
  }
}

void Simulator::Requeue(const Request& request) {
  if (request.cls == RequestClass::kBackground) {
    // A displaced repair source read goes back to the repair manager,
    // which re-issues or abandons it; it never counts as a failover.
    if (repair_.has_value()) repair_->OnBackgroundDisplaced(request, clock_);
    return;
  }
  if (request.deadline > 0 && request.deadline <= clock_) {
    // The fault drained a sweep holding an already-past-deadline request
    // (its expiry event fired while it was committed and was skipped).
    // Re-enqueueing it would lose the expiry forever, so settle it now.
    ExpireRequest(request, clock_, jukebox_->head());
    return;
  }
  if (catalog_->HasLiveReplica(request.block)) {
    ++fault_stats_.failovers;
    if (recorder_.has_value()) recorder_->RequestFailover(request.id, clock_);
    scheduler_->OnArrival(request, jukebox_->head());
  } else {
    FailRequest(request);
  }
}

void Simulator::HandlePermanentError(const ServiceEntry& entry,
                                     bool whole_tape) {
  const TapeId tape = jukebox_->mounted_tape();
  ++fault_stats_.permanent_media_errors;
  if (whole_tape) {
    ++fault_stats_.dead_tapes;
    std::vector<BlockId> newly_masked;
    fault_stats_.replicas_masked +=
        mutable_catalog_->MarkTapeDead(tape, &newly_masked);
    for (const BlockId block : newly_masked) {
      if (!catalog_->HasLiveReplica(block)) ++fault_stats_.blocks_lost;
    }
    // Every remaining sweep entry read this tape; drain them and fail each
    // request over to a surviving replica.
    for (const Request& request : scheduler_->DrainSweep()) {
      Requeue(request);
    }
    if (repair_.has_value()) repair_->OnTapeDead(tape, newly_masked, clock_);
  } else if (mutable_catalog_->MarkReplicaDead(entry.block, tape)) {
    ++fault_stats_.replicas_masked;
    if (!catalog_->HasLiveReplica(entry.block)) ++fault_stats_.blocks_lost;
    if (repair_.has_value()) repair_->OnReplicaDead(entry.block, tape, clock_);
  }
  // The requests this read was serving fail over (or fail outright).
  for (const Request& request : entry.requests) Requeue(request);
  // Pending requests whose last replica just died can never be served.
  EvictUnservable();
}

void Simulator::EvictUnservable() {
  for (const Request& request : scheduler_->EvictUnservablePending()) {
    if (request.cls == RequestClass::kBackground) {
      if (repair_.has_value()) repair_->OnBackgroundEvicted(request.block);
    } else {
      FailRequest(request);
    }
  }
}

void Simulator::DeliverArrivalsUpTo(double until, Position committed_head) {
  // Closed-model think-time expirations: the process issues its next
  // request when its think period ends.
  while (auto expired = thinking_.PopUntil(until)) {
    ProcessExpiriesUpTo(expired->first, committed_head);
    if (faults_.has_value()) {
      IssueClosedRequest(expired->first, committed_head);
    } else {
      const Request request = workload_.NextRequest(expired->first);
      metrics_.OnArrival(expired->first);
      if (recorder_.has_value()) {
        recorder_->RequestArrived(request.id, request.block,
                                  /*background=*/false, expired->first);
      }
      scheduler_->OnArrival(request, committed_head);
      TrackDeadline(request);
    }
  }
  if (trace_mode_) {
    while (trace_pos_ < trace_.size() &&
           trace_[trace_pos_].arrival_time <= until) {
      const Request& request = trace_[trace_pos_++];
      ProcessExpiriesUpTo(request.arrival_time, committed_head);
      if (admission_.has_value() &&
          !admission_->Admit(request.tenant, request.arrival_time,
                             metrics_.outstanding_now())) {
        metrics_.OnShed(request.arrival_time, request.tenant);
        if (recorder_.has_value()) {
          recorder_->RequestArrived(request.id, request.block,
                                    /*background=*/false,
                                    request.arrival_time);
          recorder_->RequestDone(request.id, obs::RequestOutcome::kShed,
                                 request.arrival_time);
        }
        continue;
      }
      metrics_.OnArrival(request.arrival_time);
      if (recorder_.has_value()) {
        recorder_->RequestArrived(request.id, request.block,
                                  /*background=*/false,
                                  request.arrival_time);
      }
      scheduler_->OnArrival(request, committed_head);
      TrackDeadline(request);
    }
    next_arrival_ = trace_pos_ < trace_.size()
                        ? trace_[trace_pos_].arrival_time
                        : config_.duration_seconds + 1;
    ProcessExpiriesUpTo(until, committed_head);
    return;
  }
  if (config_.workload.model != QueuingModel::kOpen) {
    ProcessExpiriesUpTo(until, committed_head);
    return;
  }
  while (next_arrival_ <= until) {
    ProcessExpiriesUpTo(next_arrival_, committed_head);
    const Request request = workload_.NextRequest(next_arrival_);
    if (admission_.has_value() &&
        !admission_->Admit(request.tenant, next_arrival_,
                           metrics_.outstanding_now())) {
      metrics_.OnShed(next_arrival_, request.tenant);
      if (recorder_.has_value()) {
        recorder_->RequestArrived(request.id, request.block,
                                  /*background=*/false, next_arrival_);
        recorder_->RequestDone(request.id, obs::RequestOutcome::kShed,
                               next_arrival_);
      }
    } else {
      metrics_.OnArrival(next_arrival_);
      DeliverOrFail(request, committed_head);
    }
    next_arrival_ += workload_.NextArrivalGap(next_arrival_);
  }
  ProcessExpiriesUpTo(until, committed_head);
}

void Simulator::TraceSweepContents(TapeId tape) {
  if (!recorder_.has_value() || !recorder_->trace_enabled()) return;
  const Sweep& sweep = scheduler_->sweep();
  for (const ServiceEntry& entry : sweep.forward()) {
    for (const Request& request : entry.requests) {
      recorder_->RequestScheduled(request.id, tape, clock_);
    }
  }
  for (const ServiceEntry& entry : sweep.reverse()) {
    for (const Request& request : entry.requests) {
      recorder_->RequestScheduled(request.id, tape, clock_);
    }
  }
}

void Simulator::SetupTimeline() {
  if (!config_.timeline.enabled()) return;
  timeline_.emplace(config_.timeline);
  obs::StatRegistry* reg = timeline_->registry();
  reg->AddGauge("queue_depth", [this] {
    return static_cast<double>(scheduler_->pending_size());
  });
  reg->AddGauge("sweep_depth", [this] {
    return static_cast<double>(scheduler_->sweep_size());
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
  reg->AddGauge("repair_backlog", [this] {
    return repair_.has_value()
               ? static_cast<double>(repair_->outstanding_tasks())
               : 0.0;
  });
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

void Simulator::MaybeMarkWarmup() {
  if (!warmup_marked_ && clock_ >= config_.warmup_seconds) {
    warmup_marked_ = true;
    metrics_.MarkWarmupBoundary(jukebox_->counters());
  }
}

double Simulator::NextClientEvent() const {
  if (closed_) {
    return thinking_.empty() ? std::numeric_limits<double>::infinity()
                             : thinking_.NextTime();
  }
  return next_arrival_;
}

void Simulator::Wait(size_t d, double until) {
  DriveState& drive = drives_[d];
  drive.waiting = true;
  drive.ready_at = until <= config_.duration_seconds
                       ? until
                       : std::numeric_limits<double>::infinity();
}

bool Simulator::BeginDriveRepair(size_t d, Resume resume) {
  DriveState& drive = drives_[d];
  if (!drive_faults_ || drive.next_failure > clock_) return false;
  // Failure epochs are processed lazily, when the drive next starts work:
  // each one the clock has passed charges a repair interval during which
  // the drive is down. Arrivals keep flowing while it is repaired.
  const double repair = faults_->NextRepairTime();
  ++fault_stats_.drive_failures;
  fault_stats_.drive_repair_seconds += repair;
  const double end = clock_ + repair;
  drive.charges.emplace_back(obs::DriveActivity::kDown, end);
  drive.next_failure = end + faults_->NextFailureGap();
  drive.ready_at = end;
  drive.resume = resume;
  return true;
}

void Simulator::Act(size_t d) {
  DriveState& drive = drives_[d];
  drive.waiting = false;
  Resume at = drive.resume;
  drive.resume = Resume::kTop;
  if (at == Resume::kTop) {
    at = !scheduler_->sweep_empty() ? Resume::kRead
         : scheduler_->HasWork()    ? Resume::kBoundary
                                    : Resume::kIdle;
  }
  // A failed drive must be repaired before it works again. An idle drive
  // without background work is only checked once it has work.
  const bool may_work = at != Resume::kReschedule &&
                        (at != Resume::kIdle || background_ != nullptr);
  if (may_work && BeginDriveRepair(d, at)) return;
  switch (at) {
    case Resume::kIdle:
      BeginIdle(d);
      return;
    case Resume::kBoundary:
      if (background_ != nullptr) {
        // Tape-switch boundary: background work on the mounted tape
        // before the schedule switches away from it.
        const double flush = background_->AtSweepBoundary(clock_);
        if (flush > 0) {
          drive.ready_at = clock_ + flush;
          drive.charges.emplace_back(obs::DriveActivity::kBackground,
                                     drive.ready_at);
          drive.resume = Resume::kReschedule;
          return;
        }
      }
      [[fallthrough]];
    case Resume::kReschedule:
      BeginSwitch(d);
      return;
    case Resume::kRead:
    case Resume::kTop:  // resolved above
      BeginRead(d);
      return;
  }
}

void Simulator::BeginIdle(size_t d) {
  DriveState& drive = drives_[d];
  const double next_event = NextClientEvent();
  if (background_ != nullptr) {
    // Background quanta use the idle drive until the next client event;
    // arrivals during a quantum are delivered at their own timestamps.
    const double next_work = background_->NextIdleWorkTime(clock_);
    if (next_work <= clock_ && clock_ < config_.duration_seconds) {
      const BackgroundWork::Quantum quantum =
          background_->IdleQuantum(clock_);
      drive.ready_at = clock_ + quantum.seconds;
      drive.charges.emplace_back(obs::DriveActivity::kBackground,
                                 drive.ready_at);
      drive.masked = quantum.masked_replicas;
      return;
    }
    if (next_work < next_event && next_work <= config_.duration_seconds) {
      // Background work is due before the next client event: wake for it
      // (e.g. a scrub pass, a refilled token bucket, a write).
      Wait(d, next_work);
      return;
    }
  }
  // Wait for an arrival (or a thinking process to wake).
  Wait(d, next_event);
}

void Simulator::BeginSwitch(size_t d) {
  DriveState& drive = drives_[d];
  if (recorder_.has_value()) recorder_->SetNow(clock_);
  const TapeId tape = scheduler_->MajorReschedule();
  if (tape == kInvalidTape) {
    TJ_CHECK_GT(drives_.size(), 1u)
        << "scheduler reported work but produced no schedule";
    // Every tape with work is loaded in another drive.
    ++claim_conflicts_;
    Wait(d, NextClientEvent());
    return;
  }
  TraceSweepContents(tape);
  SwitchBreakdown breakdown;
  double switch_seconds = jukebox_->SwitchTo(tape, &breakdown);
  double robot_seconds = breakdown.robot_wait + breakdown.robot;
  if (faults_.has_value() && switch_seconds > 0) {
    // Robot handoff faults: each slip repeats the robot move.
    const int slips = faults_->NextRobotFaults();
    if (slips > 0) {
      const double extra = jukebox_->ChargeRobotRetries(slips);
      fault_stats_.robot_faults += slips;
      fault_stats_.robot_retry_seconds += extra;
      switch_seconds += extra;
      robot_seconds += extra;
    }
  }
  // The switch components in temporal order (rewind, eject, robot queue +
  // move + retries, load); the final segment ends exactly at the switch's
  // end.
  const double end = clock_ + switch_seconds;
  double t = clock_ + breakdown.rewind;
  drive.charges.emplace_back(obs::DriveActivity::kRewinding, t);
  t += breakdown.eject;
  drive.charges.emplace_back(obs::DriveActivity::kSwitching, t);
  t += robot_seconds;
  drive.charges.emplace_back(obs::DriveActivity::kRobot, t);
  drive.charges.emplace_back(obs::DriveActivity::kSwitching, end);
  drive.ready_at = end;
}

void Simulator::BeginRead(size_t d) {
  DriveState& drive = drives_[d];
  std::optional<ServiceEntry> entry = scheduler_->PopNext();
  TJ_CHECK(entry.has_value());
  ReadBreakdown read_breakdown;
  double op_seconds = jukebox_->ReadBlockAt(entry->position, &read_breakdown);
  // Locate/read segments of every attempt, in temporal order.
  double op_t = clock_ + read_breakdown.locate;
  drive.charges.emplace_back(obs::DriveActivity::kLocating, op_t);
  op_t += read_breakdown.read;
  drive.charges.emplace_back(obs::DriveActivity::kReading, op_t);
  ReadOutcome outcome;
  if (faults_.has_value()) {
    outcome = faults_->NextReadOutcome();
    // Each transient retry waits out its (jittered, exponentially
    // growing) backoff, then locates back to the block start and
    // re-reads. Backoff waits are charged as locating time.
    for (int r = 0; r < outcome.retries; ++r) {
      const double backoff = faults_->NextRetryBackoff(r);
      if (backoff > 0) {
        op_seconds += backoff;
        op_t += backoff;
        drive.charges.emplace_back(obs::DriveActivity::kLocating, op_t);
      }
      op_seconds += jukebox_->ReadBlockAt(entry->position, &read_breakdown);
      op_t += read_breakdown.locate;
      drive.charges.emplace_back(obs::DriveActivity::kLocating, op_t);
      op_t += read_breakdown.read;
      drive.charges.emplace_back(obs::DriveActivity::kReading, op_t);
    }
    fault_stats_.transient_read_errors +=
        outcome.retries + (outcome.escalated ? 1 : 0);
    fault_stats_.read_retries += outcome.retries;
    if (outcome.escalated) ++fault_stats_.reads_escalated;
  }
  drive.ready_at = clock_ + op_seconds;
  // Absorb any accumulation drift between the per-segment charges and
  // op_seconds into the final reading segment.
  drive.charges.emplace_back(obs::DriveActivity::kReading, drive.ready_at);
  drive.in_flight = std::move(entry);
  drive.outcome = outcome;
}

void Simulator::Finish(size_t d) {
  DriveState& drive = drives_[d];
  for (const auto& [activity, until] : drive.charges) {
    accounting_.ChargeTo(static_cast<int>(d), activity, until);
  }
  drive.charges.clear();
  // An operation's segments end at clock_; a wait is idle up to it.
  if (drive.waiting) {
    accounting_.ChargeTo(static_cast<int>(d), obs::DriveActivity::kIdle,
                         clock_);
  }
  MaybeMarkWarmup();
  if (drive.masked) {
    drive.masked = false;
    EvictUnservable();
  }
  if (drive.in_flight.has_value()) {
    CompleteRead(*drive.in_flight, drive.outcome);
    drive.in_flight.reset();
  }
}

void Simulator::CompleteRead(const ServiceEntry& entry,
                             const ReadOutcome& outcome) {
  if (recorder_.has_value() && outcome.retries > 0) {
    for (const Request& request : entry.requests) {
      recorder_->RequestRetry(request.id, outcome.retries, clock_);
    }
  }

  if (outcome.permanent_error) {
    // The media under this read is gone: mask it and fail the requests
    // over to surviving replicas (or fail them outright).
    HandlePermanentError(entry, outcome.whole_tape);
    return;
  }

  for (const Request& request : entry.requests) {
    if (request.cls == RequestClass::kBackground) {
      // A repair source read finished: its payload is buffered. Not a
      // client completion — no metrics, no closed-model reissue.
      if (recorder_.has_value()) {
        recorder_->RequestDone(request.id, obs::RequestOutcome::kCompleted,
                               clock_);
      }
      repair_->OnSourceReadComplete(request.block, clock_);
      continue;
    }
    if (faults_.has_value() &&
        catalog_->LiveReplicaCount(request.block) <
            static_cast<int64_t>(catalog_->ReplicasOf(request.block).size())) {
      ++fault_stats_.degraded_reads;
    }
    metrics_.OnCompletion(request.arrival_time, clock_, request.tenant);
    if (background_ != nullptr) {
      background_->OnClientCompletion(request, clock_);
    }
    if (admission_.has_value()) {
      admission_->OnCompletion(request.tenant, clock_ - request.arrival_time,
                               clock_);
    }
    if (deadlines_possible_) deadline_live_.erase(request.id);
    if (recorder_.has_value()) {
      recorder_->RequestDone(request.id, obs::RequestOutcome::kCompleted,
                             clock_);
    }
    if (closed_) {
      // The completing process issues its next request, immediately (the
      // paper's I/O-bound processes) or after a think period.
      if (config_.workload.think_time_seconds > 0) {
        thinking_.Schedule(clock_ + workload_.NextThinkTime(), 0);
      } else if (faults_.has_value()) {
        IssueClosedRequest(clock_, jukebox_->head());
      } else {
        const Request next = workload_.NextRequest(clock_);
        metrics_.OnArrival(clock_);
        if (recorder_.has_value()) {
          recorder_->RequestArrived(next.id, next.block,
                                    /*background=*/false, clock_);
        }
        scheduler_->OnArrival(next, jukebox_->head());
        TrackDeadline(next);
      }
    }
  }
}

SimulationResult Simulator::Run() {
  TJ_CHECK(!ran_) << "Simulator::Run may be called once";
  ran_ = true;

  closed_ = !trace_mode_ && config_.workload.model == QueuingModel::kClosed;
  if (trace_mode_) {
    next_arrival_ = trace_.empty() ? config_.duration_seconds + 1
                                   : trace_.front().arrival_time;
  } else if (closed_) {
    // A fixed population of I/O-bound processes, all requesting at t = 0.
    for (int64_t i = 0; i < config_.workload.queue_length; ++i) {
      const Request request = workload_.NextRequest(0.0);
      metrics_.OnArrival(0.0);
      if (recorder_.has_value()) {
        recorder_->RequestArrived(request.id, request.block,
                                  /*background=*/false, 0.0);
      }
      scheduler_->OnArrival(request, jukebox_->head());
      TrackDeadline(request);
    }
  } else {
    next_arrival_ = workload_.NextArrivalGap(0.0);
  }
  MaybeMarkWarmup();

  const size_t num_drives = drives_.size();
  for (size_t d = 0; d < num_drives; ++d) {
    jukebox_->Serve(static_cast<int32_t>(d), 0.0);
    Act(d);
  }
  while (true) {
    size_t d = 0;
    for (size_t e = 1; e < num_drives; ++e) {
      if (drives_[e].ready_at < drives_[d].ready_at) d = e;
    }
    DriveState& drive = drives_[d];
    if (drive.ready_at == std::numeric_limits<double>::infinity()) break;
    jukebox_->Serve(static_cast<int32_t>(d), drive.ready_at);
    // Arrivals during the drive's operation see the head it is committed
    // to.
    DeliverArrivalsUpTo(drive.ready_at, jukebox_->head());
    clock_ = drive.ready_at;
    const bool was_waiting = drive.waiting;
    Finish(d);
    if (drive.resume == Resume::kTop &&
        clock_ >= config_.duration_seconds) {
      break;
    }
    Act(d);
    if (was_waiting && drive.waiting) continue;
    // The drive changed what the others can do (new requests, a released
    // tape): waiting drives look again now.
    for (size_t e = 0; e < num_drives; ++e) {
      DriveState& other = drives_[e];
      if (e != d && other.waiting && other.ready_at > clock_) {
        other.ready_at = clock_;
      }
    }
  }
  // Operations still in flight are clipped at the final clock.
  for (size_t d = 0; d < num_drives; ++d) {
    for (const auto& [activity, until] : drives_[d].charges) {
      accounting_.ChargeTo(static_cast<int>(d), activity,
                           std::min(until, clock_));
    }
  }
  MaybeMarkWarmup();
  accounting_.FinishAt(clock_);
  SimulationResult result =
      metrics_.Finalize(clock_, jukebox_->counters(), &accounting_);
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
  if (repair_.has_value()) {
    result.repair_enabled = true;
    result.repair = repair_->Finalize();
  }
  if (timeline_.has_value()) {
    // After accounting_.FinishAt so the final row's time-in-state deltas
    // cover the whole run. Timeline output must never fail the run.
    const Status timeline_status = timeline_->FinishAt(clock_);
    if (!timeline_status.ok()) {
      std::cerr << "warning: timeline output failed: "
                << timeline_status.ToString() << '\n';
    }
  }
  if (recorder_.has_value()) {
    const Status obs_status = recorder_->Finalize(clock_);
    if (!obs_status.ok()) {
      // Trace output must never fail the run itself.
      std::cerr << "warning: observability output failed: "
                << obs_status.ToString() << '\n';
    }
  }
  return result;
}

}  // namespace tapejuke
