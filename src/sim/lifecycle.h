// Gradual-fill lifecycle: replicas "for free" (paper §4.8 recommendation).
//
// The paper's closing advice: while a jukebox fills, keep the hottest data
// on a dedicated tape, leave the other tapes partly empty, and append
// replicas of hot data to the tape *ends* when convenient — piggybacked on
// read schedules that already have the tape loaded — so performance
// improves without dedicated write passes. This simulator implements that
// lifecycle: it starts from a spare-capacity layout with no replicas and
// opportunistically writes replicas into the free space at sweep ends (the
// drive is already positioned on the tape) and during idle periods,
// reporting performance per epoch so the "free" improvement is visible as
// the replica population grows.

#ifndef TAPEJUKE_SIM_LIFECYCLE_H_
#define TAPEJUKE_SIM_LIFECYCLE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "layout/catalog.h"
#include "sched/scheduler.h"
#include "sim/background.h"
#include "sim/simulator.h"
#include "tape/jukebox.h"
#include "util/status.h"

namespace tapejuke {

/// Gradual-fill parameters.
struct LifecycleConfig {
  /// Maximum seconds of replica writing appended to one read sweep.
  double fill_budget_seconds = 120.0;
  /// Also fill during idle periods (open queuing or think time).
  bool fill_on_idle = true;
  /// Stop once every hot block has this many copies in total.
  int32_t target_copies = 10;
  /// Number of reporting windows.
  int32_t num_epochs = 10;

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

  /// Per-epoch performance of a run that ended at `end`.
  std::vector<EpochStats> Epochs(double end);

  int64_t replicas_written() const { return replicas_written_; }
  int64_t fill_target() const { return fill_target_; }

 private:
  /// Writes replicas of hot blocks onto the mounted tape, starting at
  /// `now`, until the budget or the tape's capacity/need runs out; returns
  /// elapsed seconds.
  double FillMountedTape(double now);

  /// The tape that most needs replicas (free slots + missing copies), or
  /// kInvalidTape. Rescans only after a replica was written.
  TapeId NeediestTape();

  /// True when hot block `block` still wants a copy and has none on `tape`.
  bool WantsCopyOn(BlockId block, TapeId tape) const;

  /// Records the fill fraction reached at `now` for its epoch and later.
  void NoteFill(double now);

  /// The reporting epoch holding time `t` (the last one past the end).
  size_t EpochOf(double t) const;

  Jukebox* jukebox_;
  Catalog* catalog_;
  LifecycleConfig config_;
  double epoch_seconds_;

  /// Per-tape free slots (descending, so fills start at the tape end) and
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

/// Jukebox simulator that grows hot-data replicas while serving
/// reads: a Simulator driving a ReplicaFiller.
class LifecycleSimulator {
 public:
  /// `catalog` is mutated as replicas are written. The jukebox layout must
  /// have spare slots for them (e.g. LayoutSpec with pack_cold or a
  /// logical_blocks_override below the maximum).
  LifecycleSimulator(Jukebox* jukebox, Catalog* catalog,
                     Scheduler* scheduler, const SimulationConfig& sim,
                     const LifecycleConfig& lifecycle);

  /// Runs to completion; call once. Returns per-epoch performance.
  std::vector<EpochStats> Run() {
    return filler_.Epochs(sim_.Run().simulated_seconds);
  }

  /// Replicas written so far.
  int64_t replicas_written() const { return filler_.replicas_written(); }

  /// Total replicas the fill target implies.
  int64_t fill_target() const { return filler_.fill_target(); }

 private:
  ReplicaFiller filler_;
  Simulator sim_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_LIFECYCLE_H_
