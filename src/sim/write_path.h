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
//   * idle flush — when a drive has no read work (between open-model
//     arrivals), mount and clean the dirtiest tape;
//   * forced flush — when the buffer exceeds its capacity, reads wait
//     while the dirtiest tapes are cleaned (the interference the buffer is
//     meant to avoid).
//
// Two values are not configured here: writes pick hot blocks with the read
// stream's RH (WorkloadConfig::hot_request_fraction), and the buffer holds
// a fixed kWriteBufferCapacityBlocks dirty updates. A run turns the write
// path on with SimulationConfig::writes; the Simulator then drives a
// WriteBuffer as its background producer.

#ifndef TAPEJUKE_SIM_WRITE_PATH_H_
#define TAPEJUKE_SIM_WRITE_PATH_H_

#include <cstdint>
#include <map>
#include <set>

#include "layout/catalog.h"
#include "sim/background.h"
#include "sim/workload.h"
#include "tape/jukebox.h"
#include "util/fields.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapejuke {

/// Disk staging capacity, in dirty tape-block updates. Exceeding it
/// triggers forced flushes.
inline constexpr int64_t kWriteBufferCapacityBlocks = 256;

/// Write-path parameters.
struct WritePathConfig {
  /// Mean interarrival time of write operations (Poisson, independent of
  /// the read stream). <= 0 disables writes.
  double mean_write_interarrival_seconds = 120.0;
  /// Enable appending a write pass to the end of read sweeps.
  bool piggyback = true;
  /// Piggyback only when the mounted tape has at least this many dirty
  /// updates — smaller batches are not worth the extra locates; they wait
  /// for more dirt or for an idle/forced flush.
  int64_t piggyback_min_blocks = 8;
  /// Enable cleaning while a drive has no read work (between open-model
  /// arrivals).
  bool idle_flush = true;

  /// One row per field (util/fields.h).
  std::vector<Field> Fields();
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

  friend bool operator==(const WritePathStats&,
                         const WritePathStats&) = default;
};

/// The write path's background producer: the disk staging buffer and its
/// three flush policies. Writes arrive on their own Poisson stream and are
/// staged lazily, every write due by the time of a hook before it decides.
class WriteBuffer : public BackgroundWork {
 public:
  /// `jukebox` and `catalog` must outlive the buffer. The write stream is
  /// seeded from the read workload's seed and picks hot blocks with its
  /// RH; `run_seconds` is the length of the run.
  WriteBuffer(Jukebox* jukebox, const Catalog* catalog,
              const WritePathConfig& config, const WorkloadConfig& reads,
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
    return occupancy_ > kWriteBufferCapacityBlocks;
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
  double hot_fraction_;
  double run_seconds_;
  Rng rng_;
  double next_write_ = 0;

  std::map<TapeId, std::set<Position>> dirty_;
  int64_t occupancy_ = 0;
  WritePathStats stats_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_WRITE_PATH_H_
