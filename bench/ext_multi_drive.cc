// Extension bench: multi-drive jukebox scaling (paper §2 future work).
//
// Throughput/delay as the drive count grows, with the shared robot arm and
// tape-claim conflicts modeled. Includes the per-cabinet scaling factor and
// the robot-contention accounting. Every drive count runs on the one
// Simulator, so the 1-drive rows are the single-drive jukebox's.

#include <iterator>
#include <memory>

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

struct PointOutput {
  SimulationResult result;
  double robot_wait_seconds = 0;
  int64_t claim_conflicts = 0;
};

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv, "Extension: multi-drive jukebox scaling",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_multi_drive", options);
  ExperimentConfig base = PaperBaseConfig(options);
  std::cout << "Multi-drive extension | " << ParamCaption(base)
            << " | dynamic max-bandwidth, shared robot arm\n";

  const std::vector<int64_t> queues = QueueLengths(options);
  const int32_t drive_counts[] = {1, 2, 3, 4};
  const size_t num_points = std::size(drive_counts) * queues.size();

  std::vector<PointOutput> outputs(num_points);
  ctx.RunParallel(num_points, [&](size_t i) -> Status {
    const int32_t drives = drive_counts[i / queues.size()];
    const int64_t queue = queues[i % queues.size()];
    Jukebox jukebox(base.jukebox);
    jukebox.SetNumDrives(drives);
    StatusOr<Catalog> catalog_or =
        LayoutBuilder::Build(&jukebox, base.layout);
    if (!catalog_or.ok()) return catalog_or.status();
    Catalog catalog = std::move(catalog_or).value();
    const std::unique_ptr<Scheduler> scheduler =
        CreateScheduler(base.algorithm, &jukebox, &catalog);
    SimulationConfig sim_config = base.sim;
    sim_config.workload.queue_length = queue;
    sim_config.workload.seed = ctx.PointSeed(i);
    // Bespoke-simulator benches attach the trace and timeline
    // themselves; point indices follow RunParallel order (drives-major,
    // queue-minor).
    if (i == static_cast<size_t>(options.trace_point)) {
      sim_config.obs = options.Trace();
      sim_config.timeline = options.Timeline();
    }
    Simulator sim(&jukebox, &catalog, scheduler.get(), sim_config);
    outputs[i].result = sim.Run();
    outputs[i].robot_wait_seconds = jukebox.counters().robot_wait_seconds;
    outputs[i].claim_conflicts = sim.claim_conflicts();
    return Status::Ok();
  });

  Table table({"drives", "queue", "throughput_req_min", "delay_min",
               "speedup_vs_1", "robot_wait_s", "claim_conflicts"});
  for (size_t i = 0; i < num_points; ++i) {
    const int32_t drives = drive_counts[i / queues.size()];
    const size_t queue_index = i % queues.size();
    const PointOutput& out = outputs[i];
    const double baseline = outputs[queue_index].result.requests_per_minute;
    table.AddRow({static_cast<int64_t>(drives), queues[queue_index],
                  out.result.requests_per_minute,
                  out.result.mean_delay_minutes,
                  baseline > 0 ? out.result.requests_per_minute / baseline
                               : 0.0,
                  out.robot_wait_seconds, out.claim_conflicts});
    ctx.RecordResult("drives-" + std::to_string(drives),
                     static_cast<double>(queues[queue_index]), out.result);
  }
  ctx.Emit("drive-count scaling", &table);
  std::cout << "\nNote: near-linear (occasionally super-linear) scaling — "
               "one drive's rewind/eject\noverlaps the others' reads; the "
               "costs are robot queueing and tape-claim conflicts.\n";
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
