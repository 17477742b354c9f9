// Tape drive head state machine.
//
// The drive tracks which tape is mounted, the head position, and the kind of
// locate that last moved the head (which determines the read startup cost in
// the timing model). Operations return the seconds they take; advancing the
// simulation clock is the caller's job. The drive enforces the paper's
// hardware rule that a tape must be rewound to the beginning before eject.

#ifndef TAPEJUKE_TAPE_DRIVE_H_
#define TAPEJUKE_TAPE_DRIVE_H_

#include "tape/timing_model.h"
#include "tape/types.h"

namespace tapejuke {

/// A single tape drive.
class Drive {
 public:
  /// `model` must outlive the drive.
  explicit Drive(const TimingModel* model);

  bool has_tape() const { return loaded_tape_ != kInvalidTape; }
  TapeId loaded_tape() const { return loaded_tape_; }
  Position head() const { return head_; }

  /// Moves the head to `position`; returns the locate seconds (0 when
  /// already there). Requires a mounted tape.
  double LocateTo(Position position);

  /// Reads `mb` MB at the current head position; returns the read seconds
  /// (startup depends on the preceding locate). Head advances by `mb`.
  double Read(int64_t mb);

  /// Rewinds to the physical beginning of tape; returns the rewind seconds.
  double Rewind();

  /// Ejects the mounted tape; requires the head to be at position 0
  /// (Rewind() first). Returns the eject seconds.
  double Eject();

  /// Loads `tape` into the (empty) drive; returns the load seconds. The
  /// head starts at position 0.
  double Load(TapeId tape);

  const TimingModel& model() const { return *model_; }

 private:
  const TimingModel* model_;
  TapeId loaded_tape_ = kInvalidTape;
  Position head_ = 0;
  LocateKind last_locate_ = LocateKind::kNone;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_TAPE_DRIVE_H_
