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
#include <optional>
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
  // Jukebox geometry.
  int64_t tapes = 10;
  int64_t block_mb = 16;
  int64_t capacity_mb = 7168;
  int64_t drives = 1;
  bool fast_drive = false;
  // Layout.
  double ph = 0.10;
  int64_t replicas = 0;
  double sp = 0.0;
  std::string layout_name = "horizontal";
  bool organ_pipe = false;
  // Workload.
  std::string queuing = "closed";
  int64_t queue = 60;
  double interarrival = 90;
  double rh = 0.40;
  double zipf_theta = 0.0;
  double think_seconds = 0.0;
  int64_t seed = 1;
  // Simulation.
  double sim_seconds = tapejuke::DefaultSimSeconds();
  double warmup_frac = 0.1;
  std::string algorithm = "dynamic-max-bandwidth";
  // Traces.
  std::string save_trace;
  std::string replay_trace;

  FlagSet flags("Run one tapejuke experiment from the command line");
  flags.AddInt64("tapes", &tapes, "tapes in the jukebox");
  flags.AddInt64("block-mb", &block_mb, "logical block size, MB");
  flags.AddInt64("capacity-mb", &capacity_mb, "per-tape capacity, MB");
  flags.AddInt64("drives", &drives,
                 "drives in the cabinet (>1 shares the tapes and robot arm)");
  flags.AddBool("fast-drive", &fast_drive,
                "use the hypothetical 4x-faster drive constants");
  flags.AddDouble("ph", &ph, "fraction of logical blocks that are hot");
  flags.AddInt64("replicas", &replicas, "extra copies of each hot block");
  flags.AddDouble("sp", &sp, "hot-region start position in [0,1]");
  flags.AddString("layout", &layout_name, "horizontal or vertical");
  flags.AddBool("organ-pipe", &organ_pipe,
                "center the hot region (overrides --sp)");
  flags.AddString("queuing", &queuing, "closed or open");
  flags.AddInt64("queue", &queue, "closed model: outstanding requests");
  flags.AddDouble("interarrival", &interarrival,
                  "open model: mean interarrival seconds");
  flags.AddDouble("rh", &rh, "fraction of requests to hot data");
  flags.AddDouble("zipf", &zipf_theta,
                  "use Zipf(theta) popularity instead of hot/cold when > 0");
  flags.AddDouble("think", &think_seconds,
                  "closed model: mean think time between requests, seconds");
  flags.AddInt64("seed", &seed, "workload seed");
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

  ExperimentConfig config;
  config.jukebox.num_tapes = static_cast<int32_t>(tapes);
  config.jukebox.block_size_mb = block_mb;
  config.jukebox.timing = fast_drive ? TimingParams::FastDrive()
                                     : TimingParams::Exabyte8505XL();
  config.jukebox.timing.tape_capacity_mb = capacity_mb;
  config.layout.hot_fraction = ph;
  config.layout.num_replicas = static_cast<int32_t>(replicas);
  config.layout.start_position = sp;
  config.layout.layout = layout_name == "vertical" ? HotLayout::kVertical
                                                   : HotLayout::kHorizontal;
  if (organ_pipe) config.layout.placement = PlacementScheme::kOrganPipe;
  config.sim.duration_seconds = sim_seconds;
  config.sim.warmup_seconds = sim_seconds * warmup_frac;
  config.sim.workload.model =
      queuing == "open" ? QueuingModel::kOpen : QueuingModel::kClosed;
  config.sim.workload.queue_length = queue;
  config.sim.workload.mean_interarrival_seconds = interarrival;
  config.sim.workload.hot_request_fraction = rh;
  if (zipf_theta > 0) {
    config.sim.workload.skew = SkewModel::kZipf;
    config.sim.workload.zipf_theta = zipf_theta;
  }
  config.sim.workload.think_time_seconds = think_seconds;
  config.sim.workload.seed = static_cast<uint64_t>(seed);
  const StatusOr<AlgorithmSpec> spec = AlgorithmSpec::Parse(algorithm);
  if (!spec.ok()) {
    std::cerr << spec.status() << "\n";
    return 2;
  }
  config.algorithm = *spec;
  Status valid = config.Validate();
  if (valid.ok()) valid = ValidateDrives(config, drives);
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
  std::vector<Request> replay;
  std::string label;
  if (!replay_trace.empty()) {
    const StatusOr<std::vector<TraceRecord>> trace =
        LoadTrace(replay_trace);
    if (!trace.ok()) {
      std::cerr << trace.status() << "\n";
      return 1;
    }
    replay = TraceToRequests(*trace);
    label = " (trace replay, " + std::to_string(trace->size()) + " arrivals)";
  }
  Jukebox jukebox(config.jukebox);
  jukebox.SetNumDrives(static_cast<int32_t>(drives));
  StatusOr<Catalog> catalog = LayoutBuilder::Build(&jukebox, config.layout);
  if (!catalog.ok()) {
    std::cerr << catalog.status() << "\n";
    return 1;
  }
  const auto scheduler =
      CreateScheduler(config.algorithm, &jukebox, &catalog.value());
  std::optional<Simulator> sim;
  if (replay_trace.empty()) {
    sim.emplace(&jukebox, &catalog.value(), scheduler.get(), config.sim);
  } else {
    sim.emplace(&jukebox, &catalog.value(), scheduler.get(), config.sim,
                std::move(replay));
  }
  const SimulationResult result = sim->Run();
  if (drives > 1) label = " on " + std::to_string(drives) + " drives" + label;
  PrintResult(scheduler->name() + label,
              LayoutBuilder::ComputeStats(jukebox, catalog.value()), result);
  if (drives > 1) {
    std::cout << "robot wait (s): " << jukebox.counters().robot_wait_seconds
              << ", claim conflicts: " << sim->claim_conflicts() << "\n";
  }
  return 0;
}
