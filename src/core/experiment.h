// Public experiment API: one struct per paper knob, a scheduler factory,
// and a runner that wires jukebox + layout + workload + algorithm together.
//
// This is the primary entry point for library users:
//
//   ExperimentConfig config;
//   config.layout.hot_fraction = 0.10;          // PH-10
//   config.sim.workload.hot_request_fraction = 0.40;  // RH-40
//   config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
//   ExperimentResult result = ExperimentRunner::Run(config).value();

#ifndef TAPEJUKE_CORE_EXPERIMENT_H_
#define TAPEJUKE_CORE_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "layout/placement.h"
#include "sched/scheduler.h"
#include "sim/metrics.h"
#include "sim/simulator.h"
#include "sim/trace.h"
#include "tape/jukebox.h"
#include "util/status.h"

namespace tapejuke {

/// Scheduling algorithm family.
enum class AlgorithmKind {
  kFifo,
  kStatic,    ///< defer-all greedy (5 tape policies)
  kDynamic,   ///< insert-on-the-fly greedy (5 tape policies)
  kEnvelope,  ///< envelope extension (3 tape policies)
};

/// A fully specified scheduling algorithm.
struct AlgorithmSpec {
  AlgorithmKind kind = AlgorithmKind::kDynamic;
  TapePolicy policy = TapePolicy::kMaxBandwidth;
  SchedulerOptions options;

  /// Canonical name, e.g. "dynamic max-bandwidth", "max-bandwidth
  /// envelope", "fifo".
  std::string Name() const;

  /// Parses names like "fifo", "static-round-robin",
  /// "dynamic-max-bandwidth", "envelope-max-bandwidth",
  /// "envelope-oldest-max-requests".
  static StatusOr<AlgorithmSpec> Parse(const std::string& name);

  /// Every algorithm the paper evaluates: FIFO, the five static and five
  /// dynamic greedy variants, and the three envelope variants.
  static std::vector<AlgorithmSpec> AllPaperAlgorithms();
};

/// Instantiates the scheduler for `spec` against a jukebox + catalog.
std::unique_ptr<Scheduler> CreateScheduler(const AlgorithmSpec& spec,
                                           const Jukebox* jukebox,
                                           const Catalog* catalog);

/// Everything needed to reproduce one simulation run.
struct ExperimentConfig {
  JukeboxConfig jukebox;
  LayoutSpec layout;
  SimulationConfig sim;
  AlgorithmSpec algorithm;

  Status Validate() const;
};

/// Run output: simulation metrics plus the layout actually built.
struct ExperimentResult {
  SimulationResult sim;
  LayoutStats layout;
  std::string algorithm_name;
  /// The jukebox's counters over the whole run, warm-up included
  /// (sim.counters covers the measurement window only).
  JukeboxCounters jukebox_counters;
};

/// Builds the jukebox (with its drives) and layout, runs the simulation,
/// returns the result. Runs every single-box scenario: any drive count,
/// faults and repair, the write path, the replica fill.
class ExperimentRunner {
 public:
  /// With a non-null `trace`, arrivals are replayed from it instead of
  /// generated (open queuing; see Simulator's trace-replay constructor).
  static StatusOr<ExperimentResult> Run(
      const ExperimentConfig& config,
      const std::vector<TraceRecord>* trace = nullptr);
};

/// Default simulated seconds per run for benches: the value of the
/// TAPEJUKE_SIM_SECONDS environment variable, or 2,000,000 when it is unset
/// (the paper used 10,000,000; see DESIGN.md for the substitution note).
/// InvalidArgument, naming the variable, unless the whole value is a
/// finite number > 0.
StatusOr<double> DefaultSimSeconds();

}  // namespace tapejuke

#endif  // TAPEJUKE_CORE_EXPERIMENT_H_
