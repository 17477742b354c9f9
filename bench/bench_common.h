// Shared harness for the figure benches: common flags, standard parameter
// grids, parallel sweep execution, and table + JSON emission.
//
// Every bench declares its point grid (a vector of GridPoint), hands it to
// BenchContext::RunGrid — which fans the points out over a thread pool via
// SweepRunner with deterministic per-point seeds — and formats its tables
// from the in-order results. BenchContext::Finish() then writes
// results/<bench>.json holding every table plus the full config and
// SimulationResult of every sweep point (see docs/RESULTS.md for the
// schema) and returns the bench's exit code.
//
// Flags shared by every bench: --threads (default: hardware concurrency;
// --threads=1 runs the points serially in index order), --results-dir
// (default "results"; empty disables JSON), --quick (reduced load grid for
// CI smoke runs), plus the original --sim-seconds / --seed / --csv /
// --queuing. Results are bit-identical at any thread count.

#ifndef TAPEJUKE_BENCH_BENCH_COMMON_H_
#define TAPEJUKE_BENCH_BENCH_COMMON_H_

#include <cstdlib>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/results_io.h"
#include "core/sweep_runner.h"
#include "core/tapejuke.h"
#include "obs/recorder.h"
#include "obs/timeline.h"

namespace tapejuke {
namespace bench {

/// Flags shared by every figure bench.
struct BenchOptions {
  /// --sim-seconds; Parse starts it at DefaultSimSeconds().
  double sim_seconds = 0;
  int64_t seed = 1;
  bool csv = false;
  std::string queuing = "closed";  // "closed" or "open"
  /// Worker threads for sweep execution; 0 = hardware concurrency.
  int64_t threads = 0;
  /// Directory for results/<bench>.json; empty disables JSON output.
  std::string results_dir = "results";
  /// Reduced load grid (3 points instead of 7) for CI smoke runs.
  bool quick = false;

  /// Fault injection and scrub/repair, bound to the --fault-* flags and
  /// --repair/--scrub-interval/--repair-bw through their field tables.
  /// The defaults inject nothing (output byte-identical to a fault-free
  /// run); repair requires some fault rate. Applied by PaperBaseConfig.
  FaultConfig faults;
  RepairConfig repair;

  /// Observability (docs/OBSERVABILITY.md). Tracing is opt-in and never
  /// changes results output: with both paths empty the bench's JSON is
  /// byte-identical to an untraced run.
  std::string trace_out;         ///< --trace-out (Chrome trace JSON path)
  std::string decision_log;      ///< --decision-log (JSONL path)
  int64_t trace_sample = 1;      ///< --trace-sample (every Nth request)
  int64_t trace_point = 0;       ///< --trace-point (grid index to trace)

  /// Time-series telemetry (docs/OBSERVABILITY.md). Like tracing it is
  /// opt-in, attaches to the --trace-point grid point, and never changes
  /// results output.
  std::string timeline_out;      ///< --timeline-out (JSONL path)
  double timeline_interval = 0;  ///< --timeline-interval (sim seconds)

  /// Parses argv; returns false if the process should exit (help or error;
  /// error sets a nonzero *exit_code).
  bool Parse(int argc, char** argv, const std::string& summary,
             int* exit_code, FlagSet* extra = nullptr);

  /// The --queuing model (Parse refuses any other name).
  QueuingModel Model() const {
    return static_cast<QueuingModel>(NameIndex(kQueuingModelNames, queuing));
  }

  /// The trace configuration implied by these flags (disabled when both
  /// output paths are empty).
  obs::TraceConfig Trace() const {
    obs::TraceConfig config;
    config.trace_out = trace_out;
    config.decision_log = decision_log;
    config.sample = trace_sample;
    return config;
  }

  /// The timeline configuration implied by these flags (disabled when
  /// --timeline-out is empty).
  obs::TimelineConfig Timeline() const {
    obs::TimelineConfig config;
    config.out = timeline_out;
    config.interval_seconds = timeline_interval;
    return config;
  }

  /// Sweep-runner options implied by these flags.
  SweepOptions Sweep() const {
    SweepOptions sweep;
    sweep.threads = static_cast<int>(threads);
    sweep.base_seed = static_cast<uint64_t>(seed);
    return sweep;
  }
};

/// The paper's closed-model load sweep (queue lengths 20..140).
inline std::vector<int64_t> PaperQueueLengths() {
  return {20, 40, 60, 80, 100, 120, 140};
}

/// Open-model interarrival sweep spanning light load to saturation.
inline std::vector<double> PaperInterarrivals() {
  return {240, 160, 120, 90, 70, 60, 50};
}

/// The closed-model load sweep honoring --quick.
std::vector<int64_t> QueueLengths(const BenchOptions& options);

/// The open-model sweep honoring --quick.
std::vector<double> Interarrivals(const BenchOptions& options);

/// Baseline experiment configuration: PH-10, RH-40, NR-0, SP-0, 16 MB
/// blocks, 10 x 7 GB tapes, dynamic max-bandwidth.
ExperimentConfig PaperBaseConfig(const BenchOptions& options);

/// Standard header line describing the workload parameters, mirroring the
/// paper's "PH-10 RH-40 NR-0 SP-0" captions.
std::string ParamCaption(const ExperimentConfig& config);

/// One point of a bench's sweep grid: a series label (e.g. the algorithm
/// name), the load knob traced in tables, and the full configuration.
struct GridPoint {
  std::string series;
  double load = 0;
  ExperimentConfig config;
};

/// Farm-simulation variant of GridPoint.
struct FarmGridPoint {
  std::string series;
  double load = 0;
  FarmConfig config;
};

/// Per-bench harness: owns the shared flags, executes grids through the
/// parallel sweep runner, and accumulates the JSON results document.
class BenchContext {
 public:
  /// `bench_name` names the output file (results/<bench_name>.json).
  BenchContext(std::string bench_name, const BenchOptions& options);

  /// Writes the JSON document if Finish() was not called explicitly.
  ~BenchContext();

  const BenchOptions& options() const { return options_; }

  /// Appends one GridPoint per standard load level (honoring --queuing and
  /// --quick): closed queuing sweeps queue_length, open sweeps the mean
  /// interarrival time.
  void AddLoadSweep(std::vector<GridPoint>* grid, const std::string& series,
                    ExperimentConfig config) const;

  /// Runs `grid` across the thread pool with per-point derived seeds and
  /// returns results in grid order. Every point (effective config + full
  /// result) is recorded in the JSON document. A point whose config is
  /// refused prints the Status and exits the process with code 2, like a
  /// bad flag.
  ///
  /// With --trace-out/--decision-log set, the first grid whose size
  /// exceeds --trace-point runs that one point with the trace recorder
  /// attached (recording observes only: results stay byte-identical).
  std::vector<ExperimentResult> RunGrid(const std::vector<GridPoint>& grid);

  /// Farm variant of RunGrid.
  std::vector<FarmResult> RunFarmGrid(const std::vector<FarmGridPoint>& grid);

  /// For benches whose points report more than RunGrid records (scheduler
  /// or jukebox counters, fill epochs): runs fn(i) for each i in [0, n)
  /// across the pool. `fn` must only touch per-index state;
  /// use PointSeed(i) for any randomness so results stay thread-count
  /// invariant, and AttachTrace(i, ...) on each point's simulation config.
  /// Points are traced like RunGrid's, in index order. Exits 2, printing
  /// the Status, if any point returns a non-OK status.
  void RunParallel(size_t n, const std::function<Status(size_t)>& fn);

  /// Inside RunParallel's `fn`: attaches the requested trace and timeline
  /// to `sim` when point `index` is the one this grid traces.
  void AttachTrace(size_t index, SimulationConfig* sim) const;

  /// The derived workload seed for RunParallel point `index` — the same
  /// derivation RunGrid applies.
  uint64_t PointSeed(size_t index) const {
    return DerivePointSeed(static_cast<uint64_t>(options_.seed), index);
  }

  /// Records one RunParallel point's result in the JSON document. Not
  /// thread-safe: call after RunParallel returns, in point order.
  void RecordResult(const std::string& series, double load,
                    const SimulationResult& result);

  /// Prints `table` as text (plus CSV with --csv) and records it in the
  /// JSON document.
  void Emit(const std::string& title, Table* table);

  /// Writes results/<bench>.json (creating the directory) and prints the
  /// path (not when --results-dir is empty), then returns the bench's exit
  /// code: 2, with a message, when a requested trace, decision log or
  /// timeline was never attached (--trace-point past every grid, or a
  /// bench that does not simulate that output), else 0. Idempotent.
  int Finish();

 private:
  struct RecordedPoint {
    std::string series;
    double load;
    ExperimentConfig config;
    ExperimentResult result;
  };
  struct RecordedFarmPoint {
    std::string series;
    double load;
    FarmConfig config;
    FarmResult result;
  };
  struct RecordedExtra {
    std::string series;
    double load;
    SimulationResult result;
  };
  struct RecordedTable {
    std::string title;
    Table table;
  };

  /// True, setting `*attached`, when a `requested` output not yet
  /// attached goes to point --trace-point of a grid of `n` points: the
  /// first grid large enough takes it.
  bool Claim(bool requested, bool* attached, size_t n) const;

  void WriteResults();

  std::string bench_name_;
  BenchOptions options_;
  /// A requested trace has been attached to some grid point already.
  bool trace_attached_ = false;
  /// A requested timeline has been attached to some grid point already.
  bool timeline_attached_ = false;
  /// What the running RunParallel grid's AttachTrace attaches.
  bool parallel_trace_ = false;
  bool parallel_timeline_ = false;
  std::vector<std::vector<RecordedPoint>> sweeps_;
  std::vector<std::vector<RecordedFarmPoint>> farm_sweeps_;
  std::vector<RecordedExtra> extra_results_;
  std::vector<RecordedTable> tables_;
  bool finished_ = false;
  int exit_code_ = 0;
};

}  // namespace bench
}  // namespace tapejuke

#endif  // TAPEJUKE_BENCH_BENCH_COMMON_H_
