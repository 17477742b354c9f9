// Jukebox-farm simulation (extension; the §4.8 cost-performance analysis
// in farm form).
//
// The paper's cost-performance argument assumes a farm of n jukeboxes with
// the total workload "spread evenly over the jukeboxes", so a replicated
// scheme (E times more jukeboxes) runs each jukebox at queue Q/E. The farm
// implements exactly that split, and exploits it: the boxes are mutually
// independent discrete-event simulations, so they shard across a thread
// pool (core/sweep_runner seed discipline) and each box runs on the full
// simulator with its drives — every algorithm, fault injection, and
// scrub/repair work per box.
//
// Workload split semantics (exact, not approximate):
//  * open model — uniformly routing a Poisson(lambda) stream over n boxes
//    is, by Poisson thinning, n independent Poisson(lambda/n) streams, so
//    each box runs an open workload with interarrival mean * n;
//  * closed model — the farm-wide population Q splits as floor(Q/n) per
//    box, +1 for the first Q mod n boxes (every box needs >= 1 process).
//    Earlier revisions migrated the population (a completion regenerated
//    onto a random box); the fixed split is what §4.8 assumes, and the
//    migration noise it discards was shown (ext_farm) to be statistically
//    negligible at the paper's operating points.
//  * Box i draws from workload seed DerivePointSeed(seed, i), so streams
//    are independent and the farm is reproducible from one seed at any
//    thread count — results are bit-identical at --threads 1 vs N.

#ifndef TAPEJUKE_CORE_FARM_H_
#define TAPEJUKE_CORE_FARM_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/experiment.h"
#include "sim/metrics.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

/// Farm parameters: n identical jukeboxes, each built from the same
/// per-jukebox configuration (geometry, layout, algorithm). The workload
/// section describes the *farm-wide* load: closed queue_length is the total
/// population; open mean_interarrival_seconds is the farm-wide rate.
struct FarmConfig {
  int32_t num_jukeboxes = 2;
  /// Not a setting: the drives per box are per_jukebox.jukebox.num_drives.
  /// Kept only because perfbench/ assigns it; Validate refuses a value
  /// that differs from the per-box count.
  std::optional<int32_t> drives_per_jukebox;
  /// Worker threads sharding the boxes; <= 0 selects hardware concurrency.
  /// Purely an execution knob: results are bit-identical at any value.
  int32_t threads = 0;
  ExperimentConfig per_jukebox;

  /// One row per field, in results-JSON key order (util/fields.h);
  /// `threads` is not written.
  std::vector<Field> Fields();

  /// Checks every row, a closed population of at least one process per
  /// box or a finite per-box open interarrival time, no write path or
  /// replica fill per box (the farm merge has no place for their
  /// statistics) and the per-box config.
  Status Validate() const;
};

/// Farm results: aggregate metrics plus per-jukebox breakdowns.
struct FarmResult {
  /// Exact merge of the per-box metrics collectors, finalized at the
  /// common farm end (the latest box clock). Fault and repair counters sum
  /// across boxes; time_in_state is per-run only and stays empty here.
  SimulationResult aggregate;
  /// Whole-run completions per box (not warm-up trimmed).
  std::vector<int64_t> completions_per_jukebox;
  /// Time-averaged outstanding requests per jukebox over the measurement
  /// window (area clipped at warm-up / divided by measured seconds, the
  /// same accounting as the aggregate — the per-box values sum to
  /// aggregate.mean_outstanding exactly).
  std::vector<double> mean_outstanding_per_jukebox;
};

/// Simulates the farm; deterministic in the workload seed at any thread
/// count.
class FarmSimulator {
 public:
  explicit FarmSimulator(const FarmConfig& config);

  /// Runs to completion; call once.
  FarmResult Run();

 private:
  struct BoxOutput;

  /// The experiment config box `index` actually runs: split workload,
  /// derived seed.
  ExperimentConfig BoxConfig(int32_t index) const;

  /// Runs one box to completion on its backend simulator.
  BoxOutput RunBox(int32_t index) const;

  /// When per_jukebox.sim.timeline names an output file, writes the
  /// per-box timelines ("out.boxN.jsonl") plus one merged farm timeline
  /// at the configured path: box rows interleaved in simulated-time order
  /// (stable in box order at equal times, so the file is byte-identical
  /// at any thread count) and a farm-wide summary line.
  void WriteTimelines(
      const std::vector<std::unique_ptr<BoxOutput>>& outputs) const;

  FarmConfig config_;
  bool ran_ = false;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_CORE_FARM_H_
