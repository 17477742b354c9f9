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

/// InvalidArgument unless `config` can run on `num_drives` drives sharing
/// its jukebox: at least one drive and no more drives than tapes. Every
/// algorithm and subsystem runs at any valid drive count.
Status ValidateDrives(const ExperimentConfig& config, int64_t num_drives);

/// Run output: simulation metrics plus the layout actually built.
struct ExperimentResult {
  SimulationResult sim;
  LayoutStats layout;
  std::string algorithm_name;
};

/// Builds the jukebox and layout, runs the simulation, returns the result.
class ExperimentRunner {
 public:
  static StatusOr<ExperimentResult> Run(const ExperimentConfig& config);
};

/// Default simulated seconds per run for benches: the value of the
/// TAPEJUKE_SIM_SECONDS environment variable, or 2,000,000 (the paper used
/// 10,000,000; see DESIGN.md for the substitution note).
double DefaultSimSeconds();

/// One point of a paper-style parametric curve (load intensity traces the
/// curve; throughput and delay are the two output axes).
struct CurvePoint {
  int64_t queue_length = 0;             ///< closed model intensity knob
  double interarrival_seconds = 0;      ///< open model intensity knob
  double throughput_req_per_min = 0;
  double mean_delay_minutes = 0;
  SimulationResult sim;
};

/// Runs `base` at each closed-model queue length and returns the
/// throughput/delay curve (the paper's parametric-graph format).
StatusOr<std::vector<CurvePoint>> ThroughputDelayCurve(
    ExperimentConfig base, const std::vector<int64_t>& queue_lengths);

/// Open-model variant: sweeps mean interarrival times instead.
StatusOr<std::vector<CurvePoint>> OpenThroughputDelayCurve(
    ExperimentConfig base, const std::vector<double>& interarrivals);

}  // namespace tapejuke

#endif  // TAPEJUKE_CORE_EXPERIMENT_H_
