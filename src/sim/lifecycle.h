// Gradual-fill lifecycle: replicas "for free" (paper §4.8 recommendation).
//
// The paper's closing advice: while a jukebox fills, keep the hottest data
// on a dedicated tape, leave the other tapes partly empty, and append
// replicas of hot data to the tape *ends* when convenient — piggybacked on
// read schedules that already have the tape loaded — so performance
// improves without dedicated write passes. SimulationConfig::lifecycle
// turns that lifecycle on: a run starts from a spare-capacity layout with
// no replicas and writes replicas into the free space at sweep ends (the
// drive is already positioned on the tape) and during idle periods,
// reporting performance per epoch so the "free" improvement shows as the
// replica population grows. The fill target is derived, not configured:
// every hot block gets one copy on every tape (Jukebox::num_tapes copies).

#ifndef TAPEJUKE_SIM_LIFECYCLE_H_
#define TAPEJUKE_SIM_LIFECYCLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "layout/catalog.h"
#include "sim/background.h"
#include "tape/jukebox.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

/// Gradual-fill parameters.
struct LifecycleConfig {
  /// Maximum seconds of replica writing appended to one read sweep.
  double fill_budget_seconds = 120.0;
  /// Also fill while a drive has no read work (between open-model
  /// arrivals).
  bool fill_on_idle = true;
  /// Number of reporting windows.
  int32_t num_epochs = 10;

  /// One row per field (util/fields.h).
  std::vector<Field> Fields();
  Status Validate() const;
};

/// Performance within one reporting window.
struct EpochStats {
  double start_seconds = 0;
  double end_seconds = 0;
  int64_t completed_requests = 0;
  double requests_per_minute = 0;
  double mean_delay_minutes = 0;
  /// Fraction of the replica-fill target reached by the end of the epoch.
  double fill_fraction = 0;

  friend bool operator==(const EpochStats&, const EpochStats&) = default;
};

/// What a gradual-fill run reports (SimulationResult::lifecycle).
struct LifecycleStats {
  std::vector<EpochStats> epochs;
  int64_t replicas_written = 0;
  /// Total replicas the fill target implies.
  int64_t fill_target = 0;
};

/// The gradual-fill background producer: writes replicas of hot blocks into
/// free slots, piggybacked on a drained sweep's mount and on the idle
/// drive, and bins client completions into reporting epochs.
class ReplicaFiller : public BackgroundWork {
 public:
  /// `catalog` is mutated as replicas are written; `run_seconds` is the
  /// run length the epochs divide.
  ReplicaFiller(Jukebox* jukebox, Catalog* catalog,
                const LifecycleConfig& config, double run_seconds);

  /// Fills the mounted tape within the per-sweep budget, once per client
  /// read sweep.
  double AtSweepBoundary(double now) override;

  /// `now` while idle filling has a tape to fill, else +infinity.
  double NextIdleWorkTime(double now) override;

  /// Mounts the neediest tape and fills it within the budget.
  Quantum IdleQuantum(double now) override;

  void OnClientCompletion(const Request& request, double now) override;

  /// Per-epoch performance and the fill reached by a run that ended at
  /// `end`.
  LifecycleStats Finalize(double end);

  int64_t replicas_written() const { return replicas_written_; }

 private:
  /// Writes replicas of hot blocks onto the mounted tape, starting at
  /// `now`, until the budget or the tape's capacity/need runs out; returns
  /// elapsed seconds.
  double FillMountedTape(double now);

  /// The tape that most needs replicas (free slots + missing copies), or
  /// kInvalidTape. Rescans only after a replica was written.
  TapeId NeediestTape();

  /// Records the fill fraction reached at `now` for its epoch and later.
  void NoteFill(double now);

  /// The reporting epoch holding time `t` (the last one past the end).
  size_t EpochOf(double t) const;

  Jukebox* jukebox_;
  Catalog* catalog_;
  LifecycleConfig config_;
  double epoch_seconds_;

  /// Per-tape free slots (ascending; fills pop the back, the tape end) and
  /// a round-robin cursor over hot blocks per tape.
  std::vector<std::vector<int64_t>> free_slots_;
  std::vector<BlockId> next_hot_;
  int64_t replicas_written_ = 0;
  int64_t fill_target_ = 0;
  /// A client read completed since the last fill: the boundary fill
  /// piggybacks on that read sweep's mount.
  bool read_since_fill_ = false;
  /// NeediestTape()'s answer until the next replica is written.
  std::optional<TapeId> neediest_;

  /// Per-epoch results; the rates are filled in by Epochs().
  std::vector<EpochStats> epochs_;
  std::vector<double> delay_sum_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_LIFECYCLE_H_
