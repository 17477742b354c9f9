// Deterministic fault injection for the jukebox simulators.
//
// Tape archives deploy replication first as a *reliability* mechanism; the
// paper studies its performance side. This module lets the simulators study
// both at once by injecting four fault classes, all drawn from a dedicated
// util/rng stream so a run is bit-identical for a given seed regardless of
// how many sweep threads execute around it:
//
//  * transient read errors — the drive re-locates to the block start and
//    retries in place, up to `max_read_retries` times; each retry costs a
//    locate back to the block plus the re-read;
//  * permanent media errors — the region under the head (or, with
//    probability `whole_tape_fraction`, the entire tape) becomes unreadable;
//    the affected replicas are masked in the Catalog and the request fails
//    over to a surviving replica, or completes with a Status error if none
//    remains;
//  * drive failures — each drive fails after an Exponential(MTBF) uptime and
//    returns to service after an Exponential(MTTR) repair; queued and
//    in-flight work is rerouted to surviving drives;
//  * robot faults — a load/eject handoff slips and the robot repeats the
//    move, charging one extra robot cycle per fault.
//
// With every rate zero, FaultConfig::enabled() is false, no random draws are
// made, and simulation output is bit-identical to a build without this file.

#ifndef TAPEJUKE_SIM_FAULT_MODEL_H_
#define TAPEJUKE_SIM_FAULT_MODEL_H_

#include <cstdint>
#include <vector>

#include "layout/catalog.h"
#include "tape/jukebox.h"
#include "util/fields.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapejuke {

/// Fault-injection rates and repair parameters. All rates default to zero:
/// the default-constructed config injects nothing.
struct FaultConfig {
  /// Probability that any single block read suffers a transient error
  /// (retried in place). In [0, 1).
  double transient_read_error_prob = 0.0;
  /// Retry budget for transient read errors; when exhausted the error
  /// escalates to a permanent media error on the block's region. >= 0.
  int max_read_retries = 3;
  /// Probability that a block read hits a permanent media error. In [0, 1).
  double permanent_media_error_prob = 0.0;
  /// Given a permanent media error, probability that the whole tape (rather
  /// than just the region under the head) is lost. In [0, 1].
  double whole_tape_fraction = 0.0;
  /// Mean drive uptime between failures, seconds. 0 disables drive faults;
  /// when > 0, drive_mttr_seconds must also be > 0.
  double drive_mtbf_seconds = 0.0;
  /// Mean drive repair time, seconds.
  double drive_mttr_seconds = 0.0;
  /// Probability that a robot load/eject handoff slips and must be repeated
  /// (each repeat re-drawn, so the retry count is geometric). In [0, 1).
  double robot_fault_prob = 0.0;
  /// Exponential backoff before each transient-read retry: retry k (0-based)
  /// waits base * 2^k seconds, scaled by a deterministic jitter factor in
  /// [0.5, 1.0] drawn from the fault stream. 0 (the default) preserves the
  /// historical immediate retries, with no extra draws.
  double retry_backoff_base_seconds = 0.0;
  /// Cap on a single backoff wait (before jitter). 0 = uncapped.
  double retry_backoff_max_seconds = 0.0;

  /// True when any fault class can fire. When false the simulators make no
  /// fault-related draws and produce bit-identical output to a fault-free
  /// build.
  bool enabled() const {
    return transient_read_error_prob > 0.0 || permanent_media_error_prob > 0.0 ||
           drive_mtbf_seconds > 0.0 || robot_fault_prob > 0.0;
  }

  /// One row per field, in results-JSON key order (util/fields.h). The
  /// backoff knobs are written only when enabled, so backoff-free
  /// documents stay byte-identical to earlier output.
  std::vector<Field> Fields();

  /// Checks every row (probabilities of certain failure, which would
  /// retry forever, are outside their domains), then that MTBF comes with
  /// a positive MTTR.
  Status Validate() const;
};

/// Counters for every fault-machinery event. Aggregated into
/// SimulationResult and serialized by results_io when fault injection is on.
struct FaultStats {
  /// Transient read errors drawn (each consumes >= 1 retry).
  int64_t transient_read_errors = 0;
  /// Individual retry attempts charged (locate-back + re-read).
  int64_t read_retries = 0;
  /// Transient errors that exhausted the retry budget and escalated to a
  /// permanent media error.
  int64_t reads_escalated = 0;
  /// Permanent media errors (drawn directly or escalated).
  int64_t permanent_media_errors = 0;
  /// Permanent errors that destroyed a whole tape.
  int64_t dead_tapes = 0;
  /// Catalog replicas masked dead by permanent errors.
  int64_t replicas_masked = 0;
  /// Drive failure events.
  int64_t drive_failures = 0;
  /// Total seconds of drive downtime across all repairs.
  double drive_repair_seconds = 0.0;
  /// Robot handoff faults (each charges one extra robot cycle).
  int64_t robot_faults = 0;
  /// Extra robot seconds charged by handoff faults.
  double robot_retry_seconds = 0.0;
  /// Requests rerouted to a surviving replica or drive after a fault.
  int64_t failovers = 0;
  /// Client reads completed while their block was missing at least one
  /// replica (service continued at degraded redundancy).
  int64_t degraded_reads = 0;
  /// Durability events: blocks whose last live replica was lost (each
  /// block counted once, at the moment it became unreadable).
  int64_t blocks_lost = 0;

  FaultStats& operator+=(const FaultStats& other);
  bool operator==(const FaultStats& other) const;
};

/// Outcome of the fault draw for one block read.
struct ReadOutcome {
  /// Transient retries to charge before the read succeeds (0 = clean read).
  int retries = 0;
  /// The read ends in a permanent media error (possibly after retries).
  bool permanent_error = false;
  /// With permanent_error: the whole tape is lost, not just the region.
  bool whole_tape = false;
  /// The permanent error came from exhausting the transient retry budget
  /// (rather than a direct bad-media draw).
  bool escalated = false;
};

/// Draws, applies and counts fault events for client reads, scrub reads and
/// mounts alike. One FaultModel per simulation run; its private RNG stream
/// is independent of the workload stream, so enabling faults never
/// perturbs which blocks are requested.
class FaultModel {
 public:
  /// `config` must already be validated. The stream is seeded from a hash
  /// of `workload_seed`, so distinct experiments see distinct fault
  /// sequences and the fault and workload streams differ.
  FaultModel(const FaultConfig& config, uint64_t workload_seed);

  /// Draws and counts the fault outcome for one block read (its permanent
  /// error is counted by MaskPermanentError). Zero-rate classes draw nothing.
  ReadOutcome NextReadOutcome();

  /// Draws the number of robot handoff slips for one load/eject cycle
  /// (geometric; 0 = clean handoff).
  int NextRobotFaults();

  /// Draws the uptime until the next failure of one drive, seconds.
  /// Requires drive_mtbf_seconds > 0.
  double NextFailureGap();

  /// Draws a repair duration, seconds, counting one drive failure and its
  /// downtime. Requires drive_mttr_seconds > 0.
  double NextRepairTime();

  /// Backoff wait before transient-read retry `attempt` (0-based):
  /// min(base * 2^attempt, max) scaled by a jittered factor in [0.5, 1.0].
  /// Returns 0 without touching the RNG when backoff is disabled, so
  /// existing fault runs stay bit-identical.
  double NextRetryBackoff(int attempt);

  /// Draws the robot handoff slips of the swap `jukebox` just made and
  /// charges them to it. Returns the extra robot seconds (0 when clean).
  double ChargeRobotSlips(Jukebox* jukebox);

  /// Masks the replica of `block` on `tape`, or with `whole_tape` every
  /// replica on it, appends the newly masked blocks to `newly_masked`, and
  /// counts the error, dead tape, masked replicas and lost blocks. False
  /// only for a region error on an already dead replica.
  bool MaskPermanentError(Catalog* catalog, BlockId block, TapeId tape,
                          bool whole_tape,
                          std::vector<BlockId>* newly_masked);

  const FaultConfig& config() const { return config_; }

  /// Every fault so far; the simulator adds failovers and degraded reads.
  const FaultStats& stats() const { return stats_; }
  FaultStats& stats() { return stats_; }

 private:
  FaultConfig config_;
  Rng rng_;
  FaultStats stats_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_FAULT_MODEL_H_
