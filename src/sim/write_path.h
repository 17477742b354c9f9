// Write path: disk-resident delta staging with piggybacked tape writeback
// (extension; paper §4 assumes "writes would be directed to disk-resident
// delta files, occasionally written to tape during idle time or piggybacked
// on the read schedule" — this module implements that machinery and lets
// the bench quantify its interference with reads).
//
// Writes complete instantly from the client's view: they land in a bounded
// disk buffer and dirty every tape position holding a replica of the
// written block. Dirty data reaches tape three ways:
//
//   * piggyback flush — when a read sweep on tape t finishes, the drive is
//     already positioned there: append a write pass over t's dirty
//     positions before the next reschedule;
//   * idle flush — when no reads are pending (open queuing or think
//     time), mount and clean the dirtiest tape;
//   * forced flush — when the buffer exceeds its capacity, reads wait
//     while the dirtiest tapes are cleaned (the interference the buffer is
//     meant to avoid).

#ifndef TAPEJUKE_SIM_WRITE_PATH_H_
#define TAPEJUKE_SIM_WRITE_PATH_H_

#include <cstdint>
#include <map>
#include <set>

#include "layout/catalog.h"
#include "sched/scheduler.h"
#include "sim/background.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "tape/jukebox.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapejuke {

/// Write-path parameters.
struct WritePathConfig {
  /// Mean interarrival time of write operations (Poisson, independent of
  /// the read stream). <= 0 disables writes.
  double mean_write_interarrival_seconds = 120.0;
  /// Fraction of writes directed to hot blocks (usually matches RH).
  double hot_write_fraction = 0.40;
  /// Disk staging capacity, in dirty tape-block updates. Exceeding it
  /// triggers forced flushes.
  int64_t buffer_capacity_blocks = 256;
  /// Enable appending a write pass to the end of read sweeps.
  bool piggyback = true;
  /// Piggyback only when the mounted tape has at least this many dirty
  /// updates — smaller batches are not worth the extra locates; they wait
  /// for more dirt or for an idle/forced flush.
  int64_t piggyback_min_blocks = 8;
  /// Enable cleaning during idle periods (open queuing or think time).
  bool idle_flush = true;

  Status Validate() const;
};

/// Observability for the write path.
struct WritePathStats {
  int64_t writes_accepted = 0;
  int64_t dirty_updates_created = 0;  ///< replica positions dirtied
  int64_t blocks_flushed = 0;
  int64_t piggyback_flushes = 0;  ///< flush passes appended to read sweeps
  int64_t idle_flushes = 0;
  int64_t forced_flushes = 0;
  int64_t max_buffer_occupancy = 0;
  double write_seconds = 0;  ///< drive time spent locating + writing
};

/// The write path's background producer: the disk staging buffer and its
/// three flush policies. Writes arrive on their own Poisson stream and are
/// staged lazily, every write due by the time of a hook before it decides.
class WriteBuffer : public BackgroundWork {
 public:
  /// `jukebox` and `catalog` must outlive the buffer; `seed` drives the
  /// write stream; `run_seconds` is the length of the run.
  WriteBuffer(Jukebox* jukebox, const Catalog* catalog,
              const WritePathConfig& config, uint64_t seed,
              double run_seconds);

  /// Piggyback flush of the mounted tape, then forced flushes while the
  /// buffer is over capacity and the run lasts (reads wait).
  double AtSweepBoundary(double now) override;

  /// `now` when a forced or idle flush is due, else the next write
  /// arrival (which may make one due).
  double NextIdleWorkTime(double now) override;

  /// One forced or idle flush: mounts the dirtiest tape and cleans it.
  Quantum IdleQuantum(double now) override;

  /// Stages the writes due by `now`, so the occupancy statistics cover
  /// the writes of a run's last sweep too.
  void OnClientCompletion(const Request& request, double now) override;

  const WritePathStats& stats() const { return stats_; }

 private:
  /// Stages every write that arrives at or before `now`.
  void StageUpTo(double now);

  bool OverCapacity() const {
    return occupancy_ > config_.buffer_capacity_blocks;
  }

  /// Writes out all dirty positions of `tape` (drive must be mounted on
  /// it); returns elapsed seconds.
  double FlushTape(TapeId tape);

  /// The tape with the most dirty blocks among those no other drive
  /// holds, or kInvalidTape.
  TapeId DirtiestTape() const;

  /// Mounts DirtiestTape() (which must exist) and flushes it; bumps
  /// *flushes. Returns elapsed seconds.
  double FlushDirtiest(int64_t* flushes);

  Jukebox* jukebox_;
  const Catalog* catalog_;
  WritePathConfig config_;
  double run_seconds_;
  Rng rng_;
  double next_write_ = 0;

  std::map<TapeId, std::set<Position>> dirty_;
  int64_t occupancy_ = 0;
  WritePathStats stats_;
};

/// Jukebox simulator with a read scheduler plus the delta write path:
/// a Simulator driving a WriteBuffer.
class WritebackSimulator {
 public:
  /// All pointers must outlive the simulator; `scheduler` handles reads.
  WritebackSimulator(Jukebox* jukebox, const Catalog* catalog,
                     Scheduler* scheduler, const SimulationConfig& sim,
                     const WritePathConfig& writes);

  /// Runs to completion; call once. The returned metrics cover *reads*
  /// (write latency is ~0 by construction); write-path behaviour is in
  /// stats().
  SimulationResult Run() { return sim_.Run(); }

  const WritePathStats& stats() const { return buffer_.stats(); }

 private:
  WriteBuffer buffer_;
  Simulator sim_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_WRITE_PATH_H_
