// Schedule cost evaluation: execution time C(S) and effective bandwidth.
//
// The paper defines the effective bandwidth of a schedule as the total bytes
// retrieved divided by the seconds to perform the retrieval, where the time
// includes tape-switch overhead (rewind, eject, robot, load) and schedule
// execution time (locates and reads through the service list), evaluated
// with the §2.1 timing model. This evaluator is shared by the max-bandwidth
// tape-selection policies, the envelope-extension algorithm's incremental
// bandwidths, and the theory tests around Theorems 1-2.

#ifndef TAPEJUKE_SCHED_SCHEDULE_COST_H_
#define TAPEJUKE_SCHED_SCHEDULE_COST_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "tape/timing_model.h"
#include "tape/types.h"

namespace tapejuke {

/// Relative-epsilon equality for schedule cost / bandwidth comparisons.
/// Cost sums accumulated along different code paths can disagree in the
/// last few ulps even when mathematically equal, so tie-break rules must
/// never compare these doubles exactly (a `==` tie essentially never
/// fires and makes the winner platform-dependent).
inline bool NearlyEqual(double a, double b, double rel_eps = 1e-9) {
  return std::abs(a - b) <= rel_eps * std::max(std::abs(a), std::abs(b));
}

/// Cost breakdown of visiting one tape and executing a sweep on it.
struct SweepCostBreakdown {
  double switch_seconds = 0;     ///< rewind + eject + robot + load, if any
  double execution_seconds = 0;  ///< locates + reads in the service list
  int64_t blocks = 0;            ///< distinct blocks read
  int64_t bytes_mb = 0;          ///< blocks * block size

  double TotalSeconds() const { return switch_seconds + execution_seconds; }

  /// Effective bandwidth in MB/s; 0 for an empty or zero-time schedule.
  double BandwidthMBps() const {
    const double total = TotalSeconds();
    return total > 0 ? static_cast<double>(bytes_mb) / total : 0.0;
  }
};

/// Evaluates schedule costs against a timing model and fixed block size.
class ScheduleCost {
 public:
  /// `model` must outlive this object.
  ScheduleCost(const TimingModel* model, int64_t block_size_mb);

  int64_t block_size_mb() const { return block_size_mb_; }
  const TimingModel& model() const { return *model_; }

  /// Time to execute reads at `ordered_positions` (already in execution
  /// order) starting with the head at `start_head`: the sum of locate and
  /// read times, with read startup determined by each locate's direction.
  double ExecutionSeconds(Position start_head,
                          const std::vector<Position>& ordered_positions) const;

  /// Arranges unordered block positions into single-sweep execution order
  /// from `head`: ascending positions >= head (forward phase), then
  /// descending positions < head (reverse phase). Duplicates are dropped;
  /// already-ascending input skips the sort.
  static std::vector<Position> SweepOrder(Position head,
                                          std::vector<Position> positions);

  /// Full cost of reading, on tape `target`, the blocks whose slots are
  /// set in `slot_bits` when `mounted` (with head at `head`) is currently in
  /// the drive: tape-switch overhead if target differs, then a single
  /// sweep. Bit s % 64 of word s / 64 stands for slot s, at position
  /// s * block_size_mb(); the words need not cover the whole tape. The
  /// bits are walked in place in SweepOrder's order (set slots at or past
  /// the start head ascending, then those below it descending), so the
  /// cost is bit-for-bit ExecutionSeconds(SweepOrder(...)) of the
  /// positions. `blocks` is the number of set bits.
  SweepCostBreakdown EstimateVisit(TapeId target, TapeId mounted,
                                   Position head,
                                   std::span<const uint64_t> slot_bits) const;

 private:
  const TimingModel* model_;
  int64_t block_size_mb_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_SCHEDULE_COST_H_
