#include "sim/simulator.h"

#include <algorithm>
#include <iostream>
#include <limits>

#include "util/check.h"

namespace tapejuke {

std::vector<Field> SimulationConfig::Fields() {
  return {
      {"duration_seconds", &duration_seconds, Above(0)},
      {"warmup_seconds", &warmup_seconds, AtLeast(0)},
      {"trace_sample", &obs.sample, AtLeast(1), {}, false},
      {"timeline_interval_seconds", &timeline.interval_seconds, AtLeast(0),
       {}, false},
  };
}

Status SimulationConfig::Validate() const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
  if (!timeline.out.empty() && timeline.interval_seconds <= 0) {
    return Status::InvalidArgument(
        "timeline output requires a positive --timeline-interval");
  }
  if (warmup_seconds >= duration_seconds) {
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
  if (repair.enabled() + writes.has_value() + lifecycle.has_value() > 1) {
    return Status::InvalidArgument(
        "a run takes one background producer: repair, writes or lifecycle");
  }
  if ((writes.has_value() || lifecycle.has_value()) && faults.enabled()) {
    return Status::InvalidArgument(
        "the write path and the replica fill run without fault injection");
  }
  if (writes.has_value()) TJ_RETURN_IF_ERROR(writes->Validate());
  if (lifecycle.has_value()) TJ_RETURN_IF_ERROR(lifecycle->Validate());
  // The workload first, so a bad tenant class is named as such rather
  // than as a missing SLO.
  const Status workload_status = workload.Validate();
  if (!workload_status.ok()) return workload_status;
  return admission.Validate(workload);
}

Simulator::Simulator(Jukebox* jukebox, const Catalog* catalog,
                     Scheduler* scheduler, const SimulationConfig& config)
    : Simulator(jukebox, catalog, /*mutable_catalog=*/nullptr, scheduler,
                config) {}

Simulator::Simulator(Jukebox* jukebox, Catalog* catalog, Scheduler* scheduler,
                     const SimulationConfig& config)
    : Simulator(jukebox, catalog, catalog, scheduler, config) {}

Simulator::Simulator(Jukebox* jukebox, const Catalog* catalog,
                     Catalog* mutable_catalog, Scheduler* scheduler,
                     const SimulationConfig& config)
    : jukebox_(jukebox),
      catalog_(catalog),
      mutable_catalog_(mutable_catalog),
      scheduler_(scheduler),
      config_(config),
      workload_(catalog, config.workload),
      metrics_(config.warmup_seconds, jukebox->config().block_size_mb),
      accounting_(jukebox->num_drives(), config.warmup_seconds),
      drives_(static_cast<size_t>(jukebox->num_drives())) {
  TJ_CHECK(jukebox != nullptr);
  TJ_CHECK(catalog != nullptr);
  TJ_CHECK(scheduler != nullptr);
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK(mutable_catalog_ != nullptr ||
           (!config.faults.enabled() && !config.lifecycle.has_value()))
      << "fault injection and the replica fill require the mutable-catalog "
         "Simulator constructor (they change the catalog's replicas)";
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
                      &*faults_);
      if (recorder_.has_value()) repair_->set_recorder(&*recorder_);
      background_ = &*repair_;
    }
  }
  if (config_.writes.has_value()) {
    writes_.emplace(jukebox_, catalog_, *config_.writes, config_.workload,
                    config_.duration_seconds);
    background_ = &*writes_;
  }
  if (config_.lifecycle.has_value()) {
    filler_.emplace(jukebox_, mutable_catalog_, *config_.lifecycle,
                    config_.duration_seconds);
    background_ = &*filler_;
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

Simulator::Simulator(Jukebox* jukebox, Catalog* catalog, Scheduler* scheduler,
                     const SimulationConfig& config,
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
  // Client ids are dense from 0; a background id (>= 2^40) would grow the
  // live set to terabits.
  TJ_CHECK(request.id >= 0 && request.id < kBackgroundIdBase)
      << "deadline on non-client request" << request.id;
  const auto id = static_cast<size_t>(request.id);
  if (id >= deadline_live_.size()) deadline_live_.resize(id + 1);
  deadline_live_[id] = true;
  expiries_.Schedule(request.deadline, request.id);
}

void Simulator::SettleDeadline(RequestId id) {
  if (id >= 0 && static_cast<size_t>(id) < deadline_live_.size()) {
    deadline_live_[static_cast<size_t>(id)] = false;
  }
}

void Simulator::ExpireRequest(const Request& request, double now,
                              Position committed_head) {
  SettleDeadline(request.id);
  metrics_.OnExpired(request.arrival_time, now, request.tenant);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kExpired, now);
  }
  // The issuing process moves on exactly as it would after a completion.
  if (closed_) IssueClosedRequest(now, committed_head);
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
      if (!deadline_live_[static_cast<size_t>(event->second)]) continue;
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
  SettleDeadline(request.id);
  metrics_.OnFailure(request.arrival_time, clock_);
  if (recorder_.has_value()) {
    recorder_->RequestDone(request.id, obs::RequestOutcome::kFailed, clock_);
  }
  // The issuing process continues exactly as on completion.
  if (closed_) IssueClosedRequest(clock_, jukebox_->head());
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
    ++faults_->stats().failovers;
    if (recorder_.has_value()) recorder_->RequestFailover(request.id, clock_);
    scheduler_->OnArrival(request, jukebox_->head());
  } else {
    FailRequest(request);
  }
}

void Simulator::HandlePermanentError(const ServiceEntry& entry,
                                     bool whole_tape) {
  const TapeId tape = jukebox_->mounted_tape();
  std::vector<BlockId> newly_masked;
  const bool masked = faults_->MaskPermanentError(
      mutable_catalog_, entry.block, tape, whole_tape, &newly_masked);
  if (whole_tape) {
    // Every remaining sweep entry read this tape; drain them and fail each
    // request over to a surviving replica.
    for (const Request& request : scheduler_->DrainSweep()) {
      Requeue(request);
    }
    if (repair_.has_value()) repair_->OnTapeDead(tape, newly_masked, clock_);
  } else if (masked && repair_.has_value()) {
    repair_->OnReplicaDead(entry.block, tape, clock_);
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
  // Open model and trace replay: arrivals come from the generator or the
  // trace, and are admitted, shed and delivered alike.
  while (next_arrival_ <= until) {
    ProcessExpiriesUpTo(next_arrival_, committed_head);
    const Request request = trace_mode_
                                ? trace_[trace_pos_++]
                                : workload_.NextRequest(next_arrival_);
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
    if (!trace_mode_) {
      next_arrival_ += workload_.NextArrivalGap(next_arrival_);
    } else if (trace_pos_ < trace_.size()) {
      next_arrival_ = trace_[trace_pos_].arrival_time;
    } else {
      next_arrival_ = std::numeric_limits<double>::infinity();
    }
  }
  ProcessExpiriesUpTo(until, committed_head);
}

void Simulator::TraceSweepContents(TapeId tape) {
  if (!recorder_.has_value() || !recorder_->trace_enabled()) return;
  scheduler_->sweep().ForEach([&](const Request& request) {
    recorder_->RequestScheduled(request.id, tape, clock_);
  });
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
  const double end = clock_ + faults_->NextRepairTime();
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
    if (next_work < next_arrival_ && next_work <= config_.duration_seconds) {
      // Background work is due before the next client event: wake for it
      // (e.g. a scrub pass, a refilled token bucket, a write).
      Wait(d, next_work);
      return;
    }
  }
  // Wait for the next arrival.
  Wait(d, next_arrival_);
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
    Wait(d, next_arrival_);
    return;
  }
  TraceSweepContents(tape);
  SwitchBreakdown breakdown;
  double switch_seconds = jukebox_->SwitchTo(tape, &breakdown);
  double robot_seconds = breakdown.robot_wait + breakdown.robot;
  if (faults_.has_value() && switch_seconds > 0) {
    const double extra = faults_->ChargeRobotSlips(jukebox_);
    switch_seconds += extra;
    robot_seconds += extra;
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
      ++faults_->stats().degraded_reads;
    }
    metrics_.OnCompletion(request.arrival_time, clock_, request.tenant);
    if (background_ != nullptr) {
      background_->OnClientCompletion(request, clock_);
    }
    if (admission_.has_value()) {
      admission_->OnCompletion(request.tenant, clock_ - request.arrival_time,
                               clock_);
    }
    SettleDeadline(request.id);
    if (recorder_.has_value()) {
      recorder_->RequestDone(request.id, obs::RequestOutcome::kCompleted,
                             clock_);
    }
    // The completing process issues its next request at once (the paper's
    // I/O-bound processes).
    if (closed_) IssueClosedRequest(clock_, jukebox_->head());
  }
}

SimulationResult Simulator::Run() {
  TJ_CHECK(!ran_) << "Simulator::Run may be called once";
  ran_ = true;

  closed_ = !trace_mode_ && config_.workload.model == QueuingModel::kClosed;
  if (trace_mode_) {
    if (!trace_.empty()) next_arrival_ = trace_.front().arrival_time;
  } else if (closed_) {
    // A fixed population of I/O-bound processes, all requesting at t = 0.
    for (int64_t i = 0; i < config_.workload.queue_length; ++i) {
      IssueClosedRequest(0.0, jukebox_->head());
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
    result.faults = faults_->stats();
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
  result.claim_conflicts = claim_conflicts_;
  if (writes_.has_value()) result.write_path = writes_->stats();
  if (filler_.has_value()) {
    result.lifecycle = filler_->Finalize(result.simulated_seconds);
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
