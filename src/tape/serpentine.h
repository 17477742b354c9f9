// Serpentine tape locate-time model (extension).
//
// The paper's algorithms assume single-pass helical-scan tape, and §2 notes
// they "would need to be modified for serpentine tapes such as Travan,
// Quantum DLT, and IBM 3590". This extension provides a serpentine locate
// model so the locate-cost geometry of the two technologies can be compared
// (bench/abl_serpentine): a serpentine cartridge lays data in T longitudinal
// tracks traversed in alternating directions, so the head can move between
// two logical positions by switching tracks near the same longitudinal spot,
// making locate time roughly proportional to the *longitudinal* distance,
// not the logical-address distance.
//
// The model here follows the common linear-in-longitudinal-distance
// approximation used in tape-scheduling literature (e.g. Hillyer &
// Silberschatz, SIGMOD'96): a fixed repositioning startup, a track-switch
// penalty, and a per-MB longitudinal travel cost at search speed.

#ifndef TAPEJUKE_TAPE_SERPENTINE_H_
#define TAPEJUKE_TAPE_SERPENTINE_H_

#include <cstdint>
#include <vector>

#include "tape/types.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

/// Calibration constants for the serpentine locate model.
struct SerpentineParams {
  /// Number of longitudinal tracks (wraps) on the cartridge.
  int32_t num_tracks = 64;
  /// Usable capacity, MB (matched to the helical default for comparisons).
  int64_t tape_capacity_mb = 7168;
  /// Fixed startup overhead of any locate, seconds.
  double startup_seconds = 16.0;
  /// Extra cost of switching tracks, seconds.
  double track_switch_seconds = 2.0;
  /// Longitudinal travel cost at search speed, seconds per MB of
  /// within-track distance (~45 s for a full end-to-end pass at the default
  /// 112 MB track length, DLT-class).
  double travel_per_mb = 0.4;
  /// Transfer rate while reading, seconds per MB.
  double read_per_mb = 0.66;  // ~1.5 MB/s, DLT-class

  /// One row per field (util/fields.h).
  std::vector<Field> Fields();
  /// Checks every row, then that the tracks split the capacity evenly.
  Status Validate() const;
};

/// Locate/read cost evaluator for serpentine geometry.
class SerpentineModel {
 public:
  explicit SerpentineModel(const SerpentineParams& params);

  const SerpentineParams& params() const { return params_; }

  /// MB of data held by one track.
  int64_t TrackLengthMb() const {
    return params_.tape_capacity_mb / params_.num_tracks;
  }

  /// The track containing logical position `pos`.
  int32_t TrackOf(Position pos) const;

  /// Longitudinal offset (MB from the physical start of the tape path) of
  /// logical position `pos`; even tracks run forward, odd tracks run
  /// backward.
  int64_t LongitudinalOffset(Position pos) const;

  /// Locate time from `from` to `to`: startup + track switch (if tracks
  /// differ) + longitudinal travel.
  double LocateTime(Position from, Position to) const;

  /// Read time for `mb` MB (no direction-dependent startup on serpentine
  /// drives in this approximation).
  double ReadTime(int64_t mb) const;

  /// Total locate time of visiting `tour` in order from `head` (locates
  /// only; reads excluded).
  double TourLocateSeconds(Position head,
                           const std::vector<Position>& tour) const;

 private:
  SerpentineParams params_;
};

/// Orders block positions into a low-cost retrieval tour for serpentine
/// geometry with a greedy nearest-neighbor heuristic over the serpentine
/// locate metric. This is the "modification" the paper says its algorithms
/// would need for serpentine drives: sorted logical order is near-optimal
/// on single-pass helical tape but nearly meaningless on serpentine, where
/// track-stacked positions are the cheap neighbors.
std::vector<Position> SerpentineNearestNeighborTour(
    const SerpentineModel& model, Position head,
    std::vector<Position> positions);

}  // namespace tapejuke

#endif  // TAPEJUKE_TAPE_SERPENTINE_H_
