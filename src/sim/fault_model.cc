#include "sim/fault_model.h"

#include <algorithm>

#include "util/check.h"

namespace tapejuke {

std::vector<Field> FaultConfig::Fields() {
  const bool backoff = retry_backoff_base_seconds > 0;
  return {
      {"transient_read_error_prob", &transient_read_error_prob,
       ClosedOpen(0, 1),
       {"fault-transient-rate",
        "per-read transient error probability in [0, 1)"}},
      {"max_read_retries", &max_read_retries, AtLeast(0),
       {"fault-retries", "transient-error retry budget before escalation"}},
      {"permanent_media_error_prob", &permanent_media_error_prob,
       ClosedOpen(0, 1),
       {"fault-perm-rate",
        "per-read permanent media error probability in [0, 1)"}},
      {"whole_tape_fraction", &whole_tape_fraction, Closed(0, 1),
       {"fault-whole-tape",
        "fraction of permanent errors that kill the whole tape"}},
      {"drive_mtbf_seconds", &drive_mtbf_seconds, AtLeast(0),
       {"fault-drive-mtbf",
        "mean drive uptime between failures, seconds (0 = off)"}},
      {"drive_mttr_seconds", &drive_mttr_seconds, AtLeast(0),
       {"fault-drive-mttr", "mean drive repair time, seconds"}},
      {"robot_fault_prob", &robot_fault_prob, ClosedOpen(0, 1),
       {"fault-robot-rate", "robot handoff slip probability in [0, 1)"}},
      {"retry_backoff_base_seconds", &retry_backoff_base_seconds, AtLeast(0),
       {"fault-backoff-base",
        "exponential backoff base before retry k: base * 2^k seconds, "
        "jittered (0 = immediate retries)"},
       backoff},
      {"retry_backoff_max_seconds", &retry_backoff_max_seconds, AtLeast(0),
       {"fault-backoff-max",
        "cap on a single backoff wait, seconds (0 = uncapped)"},
       backoff},
      {"seed", Fixed(uint64_t{0})},
  };
}

Status FaultConfig::Validate() const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
  if (drive_mtbf_seconds > 0.0 && drive_mttr_seconds <= 0.0) {
    return Status::InvalidArgument(
        "drive_mtbf_seconds > 0 requires drive_mttr_seconds > 0");
  }
  return Status::Ok();
}

FaultStats& FaultStats::operator+=(const FaultStats& other) {
  transient_read_errors += other.transient_read_errors;
  read_retries += other.read_retries;
  reads_escalated += other.reads_escalated;
  permanent_media_errors += other.permanent_media_errors;
  dead_tapes += other.dead_tapes;
  replicas_masked += other.replicas_masked;
  drive_failures += other.drive_failures;
  drive_repair_seconds += other.drive_repair_seconds;
  robot_faults += other.robot_faults;
  robot_retry_seconds += other.robot_retry_seconds;
  failovers += other.failovers;
  degraded_reads += other.degraded_reads;
  blocks_lost += other.blocks_lost;
  return *this;
}

bool FaultStats::operator==(const FaultStats& other) const {
  return transient_read_errors == other.transient_read_errors &&
         read_retries == other.read_retries &&
         reads_escalated == other.reads_escalated &&
         permanent_media_errors == other.permanent_media_errors &&
         dead_tapes == other.dead_tapes &&
         replicas_masked == other.replicas_masked &&
         drive_failures == other.drive_failures &&
         drive_repair_seconds == other.drive_repair_seconds &&
         robot_faults == other.robot_faults &&
         robot_retry_seconds == other.robot_retry_seconds &&
         failovers == other.failovers &&
         degraded_reads == other.degraded_reads &&
         blocks_lost == other.blocks_lost;
}

namespace {

// Mixes the workload seed into a distinct fault-stream seed so the two
// streams never collide.
uint64_t DeriveFaultSeed(uint64_t workload_seed) {
  uint64_t state = workload_seed ^ 0xfa17ab1e5eedULL;
  return SplitMix64(&state);
}

}  // namespace

FaultModel::FaultModel(const FaultConfig& config, uint64_t workload_seed)
    : config_(config),
      rng_(DeriveFaultSeed(workload_seed)) {
  TJ_CHECK(config.Validate().ok()) << config.Validate().message();
}

ReadOutcome FaultModel::NextReadOutcome() {
  ReadOutcome outcome;
  // Permanent errors are drawn first: a read that lands on bad media fails
  // outright, no matter how many transient retries the drive would allow.
  if (config_.permanent_media_error_prob > 0.0 &&
      rng_.Bernoulli(config_.permanent_media_error_prob)) {
    outcome.permanent_error = true;
    outcome.whole_tape = config_.whole_tape_fraction > 0.0 &&
                         rng_.Bernoulli(config_.whole_tape_fraction);
    return outcome;
  }
  if (config_.transient_read_error_prob <= 0.0) return outcome;
  // Each attempt independently suffers a transient error; the retry budget
  // bounds the chain, and exhausting it escalates to a permanent error.
  while (rng_.Bernoulli(config_.transient_read_error_prob)) {
    ++stats_.transient_read_errors;
    if (outcome.retries == config_.max_read_retries) {
      ++stats_.reads_escalated;
      outcome.permanent_error = true;
      outcome.escalated = true;
      outcome.whole_tape = config_.whole_tape_fraction > 0.0 &&
                           rng_.Bernoulli(config_.whole_tape_fraction);
      return outcome;
    }
    ++outcome.retries;
    ++stats_.read_retries;
  }
  return outcome;
}

int FaultModel::NextRobotFaults() {
  if (config_.robot_fault_prob <= 0.0) return 0;
  int faults = 0;
  while (rng_.Bernoulli(config_.robot_fault_prob)) ++faults;
  return faults;
}

double FaultModel::NextFailureGap() {
  TJ_CHECK_GT(config_.drive_mtbf_seconds, 0.0);
  return rng_.Exponential(config_.drive_mtbf_seconds);
}

double FaultModel::NextRepairTime() {
  TJ_CHECK_GT(config_.drive_mttr_seconds, 0.0);
  const double repair = rng_.Exponential(config_.drive_mttr_seconds);
  ++stats_.drive_failures;
  stats_.drive_repair_seconds += repair;
  return repair;
}

double FaultModel::ChargeRobotSlips(Jukebox* jukebox) {
  const int slips = NextRobotFaults();
  const double extra = jukebox->ChargeRobotRetries(slips);
  stats_.robot_faults += slips;
  stats_.robot_retry_seconds += extra;
  return extra;
}

bool FaultModel::MaskPermanentError(Catalog* catalog, BlockId block,
                                    TapeId tape, bool whole_tape,
                                    std::vector<BlockId>* newly_masked) {
  ++stats_.permanent_media_errors;
  const size_t first = newly_masked->size();
  if (whole_tape) {
    ++stats_.dead_tapes;
    stats_.replicas_masked += catalog->MarkTapeDead(tape, newly_masked);
  } else if (catalog->MarkReplicaDead(block, tape)) {
    ++stats_.replicas_masked;
    newly_masked->push_back(block);
  } else {
    return false;
  }
  for (size_t i = first; i < newly_masked->size(); ++i) {
    if (!catalog->HasLiveReplica((*newly_masked)[i])) ++stats_.blocks_lost;
  }
  return true;
}

double FaultModel::NextRetryBackoff(int attempt) {
  if (config_.retry_backoff_base_seconds <= 0.0) return 0.0;
  TJ_CHECK_GE(attempt, 0);
  // Cap the doubling exponent so the shift below cannot overflow; the
  // config cap (when set) applies on top.
  const int exponent = attempt < 60 ? attempt : 60;
  double wait = config_.retry_backoff_base_seconds *
                static_cast<double>(uint64_t{1} << exponent);
  if (config_.retry_backoff_max_seconds > 0.0) {
    wait = std::min(wait, config_.retry_backoff_max_seconds);
  }
  // Jitter in [0.5, 1.0]: desynchronizes retry storms across drives while
  // staying a deterministic function of the fault stream.
  return wait * (0.5 + 0.5 * rng_.UniformDouble());
}

}  // namespace tapejuke
