// run_experiment: a command-line front end exposing every knob of the
// library — jukebox geometry, workload skew and intensity, layout and
// replication, scheduling algorithm, queuing model, multi-drive mode, and
// trace capture/replay. Useful for ad-hoc exploration without writing C++.
//
// Examples:
//   run_experiment --algorithm envelope-max-bandwidth --replicas 9 --sp 1
//   run_experiment --queuing open --interarrival 70 --rh 0.6
//   run_experiment --drives 2 --queue 120
//   run_experiment --save-trace /tmp/t.csv --queuing open
//   run_experiment --replay-trace /tmp/t.csv --algorithm dynamic-max-requests

#include <iostream>
#include <vector>

#include "core/tapejuke.h"
#include "sim/trace.h"

namespace {

using namespace tapejuke;

void PrintResult(const std::string& algorithm, const LayoutStats& layout,
                 const SimulationResult& result) {
  Table table({"metric", "value"});
  table.set_precision(3);
  table.AddRow({std::string("algorithm"), algorithm});
  table.AddRow({std::string("logical blocks"), layout.logical_blocks});
  table.AddRow({std::string("hot blocks"), layout.hot_blocks});
  table.AddRow({std::string("physical copies"), layout.total_copies});
  table.AddRow({std::string("expansion factor"),
                layout.measured_expansion});
  table.AddRow({std::string("completed requests"),
                result.completed_requests});
  table.AddRow({std::string("throughput (req/min)"),
                result.requests_per_minute});
  table.AddRow({std::string("throughput (MB/s)"),
                result.throughput_mb_per_s});
  table.AddRow({std::string("mean delay (min)"),
                result.mean_delay_minutes});
  table.AddRow({std::string("p95 delay (min)"),
                result.p95_delay_seconds / 60.0});
  table.AddRow({std::string("mean outstanding"), result.mean_outstanding});
  table.AddRow({std::string("tape switches/h"),
                result.tape_switches_per_hour});
  table.AddRow({std::string("transfer utilization"),
                result.transfer_utilization});
  table.PrintText(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  // The flags that set one config field bind to it through its table;
  // the rest derive fields after parsing.
  ExperimentConfig config;
  config.sim.workload.mean_interarrival_seconds = 90;  // --interarrival default
  bool fast_drive = false;
  double zipf_theta = 0.0;
  const StatusOr<double> default_seconds = tapejuke::DefaultSimSeconds();
  if (!default_seconds.ok()) {
    std::cerr << default_seconds.status() << "\n";
    return 2;
  }
  double sim_seconds = default_seconds.value();
  double warmup_frac = 0.1;
  std::string algorithm = "dynamic-max-bandwidth";
  // Traces.
  std::string save_trace;
  std::string replay_trace;

  FlagSet flags("Run one tapejuke experiment from the command line");
  BindFlags(&flags, config.jukebox.Fields());
  BindFlags(&flags, config.layout.Fields());
  BindFlags(&flags, config.sim.workload.Fields());
  flags.AddBool("fast-drive", &fast_drive,
                "use the hypothetical 4x-faster drive constants");
  flags.AddDouble("zipf", &zipf_theta,
                  "use Zipf(theta) popularity instead of hot/cold when > 0");
  flags.AddDouble("sim-seconds", &sim_seconds, "simulated duration");
  flags.AddDouble("warmup-frac", &warmup_frac,
                  "fraction of the run excluded from statistics");
  flags.AddString("algorithm", &algorithm,
                  "fifo | static-<policy> | dynamic-<policy> | "
                  "envelope-<policy>");
  flags.AddString("save-trace", &save_trace,
                  "synthesize an open-model trace, save as CSV, and exit");
  flags.AddString("replay-trace", &replay_trace,
                  "replay a CSV trace instead of generating arrivals");
  const Status parse_status = flags.Parse(argc, argv);
  if (parse_status.code() == StatusCode::kNotFound) return 0;
  if (!parse_status.ok()) {
    std::cerr << parse_status << "\n";
    return 2;
  }

  if (fast_drive) {
    TimingParams fast = TimingParams::FastDrive();
    fast.tape_capacity_mb = config.jukebox.timing.tape_capacity_mb;
    config.jukebox.timing = fast;
  }
  config.sim.duration_seconds = sim_seconds;
  config.sim.warmup_seconds = sim_seconds * warmup_frac;
  if (zipf_theta > 0) {
    config.sim.workload.skew = SkewModel::kZipf;
    config.sim.workload.zipf_theta = zipf_theta;
  }
  const StatusOr<AlgorithmSpec> spec = AlgorithmSpec::Parse(algorithm);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\n";
    return 2;
  }
  config.algorithm = *spec;
  const Status valid = config.Validate();
  if (!valid.ok()) {
    std::cerr << valid << "\n";
    return 2;
  }

  // Trace capture: synthesize + save, no simulation.
  if (!save_trace.empty()) {
    Jukebox jukebox(config.jukebox);
    const StatusOr<Catalog> catalog =
        LayoutBuilder::Build(&jukebox, config.layout);
    if (!catalog.ok()) {
      std::cerr << catalog.status() << "\n";
      return 1;
    }
    const auto trace =
        SynthesizeTrace(*catalog, config.sim.workload, sim_seconds);
    const Status saved = SaveTrace(save_trace, trace);
    if (!saved.ok()) {
      std::cerr << saved << "\n";
      return 1;
    }
    std::cout << "wrote " << trace.size() << " arrivals to " << save_trace
              << "\n";
    return 0;
  }

  // One path for every drive count, with or without a replayed trace.
  std::vector<TraceRecord> trace;
  std::string label;
  if (!replay_trace.empty()) {
    StatusOr<std::vector<TraceRecord>> loaded = LoadTrace(replay_trace);
    if (!loaded.ok()) {
      std::cerr << loaded.status() << "\n";
      return 1;
    }
    trace = std::move(loaded).value();
    label = " (trace replay, " + std::to_string(trace.size()) + " arrivals)";
  }
  const StatusOr<ExperimentResult> result =
      ExperimentRunner::Run(config, replay_trace.empty() ? nullptr : &trace);
  if (!result.ok()) {
    std::cerr << result.status() << "\n";
    return 1;
  }
  const int32_t drives = config.jukebox.num_drives;
  if (drives > 1) label = " on " + std::to_string(drives) + " drives" + label;
  PrintResult(result->algorithm_name + label, result->layout, result->sim);
  if (drives > 1) {
    std::cout << "robot wait (s): "
              << result->jukebox_counters.robot_wait_seconds
              << ", claim conflicts: " << result->sim.claim_conflicts
              << "\n";
  }
  return 0;
}
