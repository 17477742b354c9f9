// A small tape jukebox (paper §2): one drive, a robotic arm, and a handful
// of tapes, scheduled independently of other jukeboxes. The multi-drive
// extension (paper §2 names it future work) runs D drives
// (JukeboxConfig::num_drives) that share the tapes and the one arm.
//
// The jukebox owns the tapes and the drives, performs complete tape
// switches (rewind + eject + robot swap + load), and tallies
// time-accounting counters that the metrics layer reports (number of
// switches, seconds spent in each activity, bytes read). Drive operations
// and queries act on the *served* drive, which the simulator selects
// before each drive acts (Serve); with one drive it is always drive 0.

#ifndef TAPEJUKE_TAPE_JUKEBOX_H_
#define TAPEJUKE_TAPE_JUKEBOX_H_

#include <cstdint>
#include <vector>

#include "tape/drive.h"
#include "tape/tape.h"
#include "tape/timing_model.h"
#include "tape/types.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

/// Cumulative activity accounting for one jukebox.
struct JukeboxCounters {
  int64_t tape_switches = 0;
  int64_t blocks_read = 0;
  int64_t mb_read = 0;
  double rewind_seconds = 0;
  double switch_seconds = 0;  ///< eject + robot + load (excludes rewind)
  double locate_seconds = 0;
  double read_seconds = 0;
  /// Seconds mounts spent queued for the shared robot arm (always 0 with
  /// one drive). Not part of BusySeconds.
  double robot_wait_seconds = 0;

  /// Total accounted busy time.
  double BusySeconds() const {
    return rewind_seconds + switch_seconds + locate_seconds + read_seconds;
  }
};

/// Component timing of one SwitchTo call, for per-state observability.
/// rewind + eject + robot_wait + robot + load == the seconds SwitchTo
/// returned.
struct SwitchBreakdown {
  double rewind = 0;
  double eject = 0;
  double robot_wait = 0;  ///< queued behind another drive's arm use
  double robot = 0;
  double load = 0;
};

/// Component timing of one ReadBlockAt call.
/// locate + read == the seconds ReadBlockAt returned.
struct ReadBreakdown {
  double locate = 0;
  double read = 0;
};

/// Configuration for Jukebox construction.
struct JukeboxConfig {
  int32_t num_tapes = 10;
  int64_t block_size_mb = 16;
  TimingParams timing = TimingParams::Exabyte8505XL();
  /// Helical-scan drives must rewind to the beginning of tape before eject
  /// (the paper's assumption). Setting this false models a hypothetical
  /// eject-anywhere drive (abl_rewind ablation; cf. the related-work
  /// discussion of rewind-to-nearest-zone libraries).
  bool rewind_before_eject = true;
  /// Drives sharing the tapes and the robot arm (1 is the paper's
  /// jukebox). Every algorithm and subsystem runs at any count from 1 to
  /// num_tapes. Not written to results JSON.
  int32_t num_drives = 1;

  /// One row per field, in results-JSON key order (util/fields.h), with
  /// the timing rows in place of `timing`.
  std::vector<Field> Fields();

  /// Checks every row, then that there are no more drives than tapes, a
  /// block fits a tape and a tape holds at most 2^31 - 1 slots.
  Status Validate() const;
};

/// Drives + robot + tape pool. All time-consuming operations return the
/// seconds they take and update the counters; the simulator owns the clock.
class Jukebox {
 public:
  /// Constructs a jukebox with config.num_drives empty drives (TJ_CHECKs
  /// on invalid config; use JukeboxConfig::Validate() to pre-check user
  /// input).
  explicit Jukebox(const JukeboxConfig& config);
  // Drives point at model_.
  Jukebox(const Jukebox&) = delete;
  Jukebox& operator=(const Jukebox&) = delete;

  /// For MultiDriveSimulator only (the rest set JukeboxConfig::num_drives):
  /// replaces the drives of a fresh jukebox with `num_drives` empty ones,
  /// before a scheduler (one sweep per drive) is built against it.
  /// TJ_CHECKs 1 <= num_drives <= num_tapes.
  void SetNumDrives(int32_t num_drives);
  int32_t num_drives() const { return static_cast<int32_t>(drives_.size()); }

  /// Points the drive operations and queries below at drive `index`,
  /// which starts its next operation at simulated time `now` (the robot
  /// arm's queue needs the time; nothing else does).
  void Serve(int32_t index, double now) {
    served_ = index;
    now_ = now;
  }
  int32_t served_drive() const { return served_; }

  /// True if `tape` is loaded in a drive other than the served one, which
  /// therefore cannot mount it (the tape-claim check). Always false with
  /// one drive.
  bool HeldByOtherDrive(TapeId tape) const;

  const TimingModel& model() const { return model_; }
  const JukeboxConfig& config() const { return config_; }

  int32_t num_tapes() const { return static_cast<int32_t>(tapes_.size()); }
  Tape& tape(TapeId id);
  const Tape& tape(TapeId id) const;

  /// The served drive, and any drive by index.
  Drive& drive() { return drives_[static_cast<size_t>(served_)]; }
  const Drive& drive() const { return drives_[static_cast<size_t>(served_)]; }
  const Drive& drive(int32_t index) const {
    return drives_[static_cast<size_t>(index)];
  }

  /// The tape mounted in the served drive, or kInvalidTape.
  TapeId mounted_tape() const { return drive().loaded_tape(); }

  /// Head position of the served drive (0 when no tape is mounted).
  Position head() const { return drive().head(); }

  /// Switches the served drive to `target`: rewind (if needed), eject,
  /// robot swap, load. With several drives the swap first waits for the
  /// arm to finish earlier swaps. No-op returning 0 when `target` is
  /// already mounted; `target` must not be held by another drive. Counters
  /// are updated. Returns elapsed seconds; when `breakdown` is non-null the
  /// component times are stored there (zeroed first).
  double SwitchTo(TapeId target, SwitchBreakdown* breakdown = nullptr);

  /// Locates to `position` on the mounted tape and reads one block
  /// (config().block_size_mb MB). Updates counters. Returns elapsed
  /// seconds; when `breakdown` is non-null the locate/read split is
  /// stored there (zeroed first).
  double ReadBlockAt(Position position, ReadBreakdown* breakdown = nullptr);

  /// Rewinds the mounted tape (explicit idle-time rewind). Returns seconds.
  double Rewind();

  /// Charges `count` extra robot cycles (a fault-injected load/eject
  /// handoff slip repeats the robot move) to the swap SwitchTo just made;
  /// the arm stays busy for them. Returns the seconds charged.
  double ChargeRobotRetries(int count);

  const JukeboxCounters& counters() const { return counters_; }

  /// Number of slots per tape for this configuration.
  int64_t slots_per_tape() const { return tapes_.front().num_slots(); }

  /// Total slots across all tapes.
  int64_t total_slots() const { return slots_per_tape() * num_tapes(); }

 private:
  JukeboxConfig config_;
  TimingModel model_;
  std::vector<Drive> drives_;
  std::vector<Tape> tapes_;
  JukeboxCounters counters_;
  int32_t served_ = 0;
  double now_ = 0;  ///< when the served drive's next operation starts
  double robot_free_at_ = 0;  ///< when the arm finishes its last swap
};

}  // namespace tapejuke

#endif  // TAPEJUKE_TAPE_JUKEBOX_H_
