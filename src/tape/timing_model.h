// Analytic tape timing model (paper §2.1).
//
// For single-pass (helical-scan) tape technology, locate time is piecewise
// linear in the distance travelled, with four regimes: {short, long} ×
// {forward, reverse}. Reads have a per-MB transfer cost plus a startup that
// depends on the direction of the preceding locate. Rewinding to the physical
// beginning of tape incurs extra fixed overhead, and a tape switch is
// eject + robot motion + load.
//
// Default constants are the least-squares fits the paper measured on an
// Exabyte EXB-8505XL drive in an EXB-210 jukebox (1 MB logical blocks).

#ifndef TAPEJUKE_TAPE_TIMING_MODEL_H_
#define TAPEJUKE_TAPE_TIMING_MODEL_H_

#include <cstdint>
#include <vector>

#include "tape/types.h"
#include "util/check.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

/// Calibration constants for TimingModel. All times in seconds, all
/// distances in MB.
struct TimingParams {
  // Forward locate past k MB: short regime (k <= short_threshold_mb) and
  // long regime.
  double fwd_short_startup = 4.834;
  double fwd_short_per_mb = 0.378;
  double fwd_long_startup = 14.342;
  double fwd_long_per_mb = 0.028;

  // Reverse locate regimes.
  double rev_short_startup = 4.99;
  double rev_short_per_mb = 0.328;
  double rev_long_startup = 13.74;
  double rev_long_per_mb = 0.0286;

  /// Boundary between the short and long locate regimes.
  double short_threshold_mb = 28.0;

  /// Extra overhead whenever a locate lands on the physical beginning of
  /// tape (the drive performs housekeeping on a full rewind).
  double bot_extra_seconds = 21.0;

  /// Reading k MB after a forward locate takes
  /// read_fwd_startup + read_per_mb * k; after a reverse locate the startup
  /// is read_rev_startup.
  double read_fwd_startup = 0.38;
  double read_rev_startup = 0.0;
  double read_per_mb = 1.77;

  /// Tape switch components: drive eject, robot arm swap, load + ready.
  double eject_seconds = 19.0;
  double robot_seconds = 20.0;
  double load_seconds = 42.0;

  /// Usable capacity of one tape, in MB.
  int64_t tape_capacity_mb = 7168;  // 7 GB

  /// The EXB-8505XL / EXB-210 constants from the paper (same as the
  /// defaults; spelled out for callers that want to be explicit).
  static TimingParams Exabyte8505XL() { return TimingParams{}; }

  /// A hypothetical faster drive (~4x positioning and transfer speed) used
  /// to check that conclusions are insensitive to drive speed (§2.1 claims
  /// qualitative results do not change).
  static TimingParams FastDrive();

  /// One row per field (util/fields.h). The costs are calibration
  /// constants, not results-JSON keys; the capacity is both a key and the
  /// --capacity-mb flag.
  std::vector<Field> Fields();

  /// Checks every row: finite costs >= 0, read_per_mb > 0, a capacity of
  /// at least 1 MB.
  Status Validate() const;
};

/// Evaluates locate/read/rewind/switch costs for the model above.
///
/// The model is deterministic; stochastic "measured" timings are produced by
/// PhysicalDrive (physical_drive.h) for validation experiments. The cost
/// functions are defined inline below: tape scoring and the envelope kernel
/// call them tens of millions of times per figure set.
class TimingModel {
 public:
  /// Constructs a model; params must Validate().
  explicit TimingModel(const TimingParams& params);

  const TimingParams& params() const { return params_; }

  /// Time to locate forward past `distance_mb` MB (>= 0). Zero distance is
  /// free (no head motion is needed).
  double ForwardLocateTime(int64_t distance_mb) const;

  /// Time to locate backward past `distance_mb` MB (>= 0). Zero is free.
  double ReverseLocateTime(int64_t distance_mb) const;

  /// Time to move the head from `from` to `to`. Includes the
  /// beginning-of-tape surcharge when `to` == 0 and motion occurs.
  double LocateTime(Position from, Position to) const;

  /// Time to read `mb` MB given the kind of locate that preceded the read.
  double ReadTime(int64_t mb, LocateKind preceding) const;

  /// Time for locate(from -> to) followed by reading `mb` MB at `to`.
  double LocateAndReadTime(Position from, Position to, int64_t mb) const;

  /// Full rewind from `from` to the physical beginning of tape.
  double RewindTime(Position from) const;

  /// Robot-side tape switch: eject + arm swap + load (excludes rewind).
  double SwitchTime() const;

  /// Rewind from `head` plus a tape switch: the full cost of moving the
  /// drive from one mounted tape to another.
  double FullSwitchTime(Position head) const;

  /// Streaming transfer rate, MB/s (the asymptotic read rate).
  double StreamingRateMBps() const { return 1.0 / params_.read_per_mb; }

 private:
  TimingParams params_;
};

inline double TimingModel::ForwardLocateTime(int64_t distance_mb) const {
  TJ_DCHECK(distance_mb >= 0);
  if (distance_mb == 0) return 0.0;
  const auto k = static_cast<double>(distance_mb);
  if (k <= params_.short_threshold_mb) {
    return params_.fwd_short_startup + params_.fwd_short_per_mb * k;
  }
  return params_.fwd_long_startup + params_.fwd_long_per_mb * k;
}

inline double TimingModel::ReverseLocateTime(int64_t distance_mb) const {
  TJ_DCHECK(distance_mb >= 0);
  if (distance_mb == 0) return 0.0;
  const auto k = static_cast<double>(distance_mb);
  if (k <= params_.short_threshold_mb) {
    return params_.rev_short_startup + params_.rev_short_per_mb * k;
  }
  return params_.rev_long_startup + params_.rev_long_per_mb * k;
}

inline double TimingModel::LocateTime(Position from, Position to) const {
  TJ_DCHECK(from >= 0);
  TJ_DCHECK(to >= 0);
  if (from == to) return 0.0;
  double time = (to > from) ? ForwardLocateTime(to - from)
                            : ReverseLocateTime(from - to);
  if (to == 0) time += params_.bot_extra_seconds;
  return time;
}

inline double TimingModel::ReadTime(int64_t mb, LocateKind preceding) const {
  TJ_DCHECK(mb >= 0);
  if (mb == 0) return 0.0;
  double startup = 0.0;
  switch (preceding) {
    case LocateKind::kNone:
      startup = 0.0;  // streaming continuation, no repositioning startup
      break;
    case LocateKind::kForward:
      startup = params_.read_fwd_startup;
      break;
    case LocateKind::kReverse:
      startup = params_.read_rev_startup;
      break;
  }
  return startup + params_.read_per_mb * static_cast<double>(mb);
}

inline double TimingModel::LocateAndReadTime(Position from, Position to,
                                             int64_t mb) const {
  LocateKind kind = LocateKind::kNone;
  if (to > from) kind = LocateKind::kForward;
  if (to < from) kind = LocateKind::kReverse;
  return LocateTime(from, to) + ReadTime(mb, kind);
}

inline double TimingModel::RewindTime(Position from) const {
  return LocateTime(from, 0);
}

inline double TimingModel::SwitchTime() const {
  return params_.eject_seconds + params_.robot_seconds + params_.load_seconds;
}

inline double TimingModel::FullSwitchTime(Position head) const {
  return RewindTime(head) + SwitchTime();
}

}  // namespace tapejuke

#endif  // TAPEJUKE_TAPE_TIMING_MODEL_H_
