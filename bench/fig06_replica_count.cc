// Figure 6: throughput and latency as a function of the number of replicas
// of hot data.
//
// PH-10 RH-40, vertical layout (one hot tape; replicas round-robin over the
// others), replicas at the tape ends (SP-1.0, per §4.5). Paper answers
// (Q4): more replicas are uniformly better — full replication buys ~18%
// throughput, ~13% response time, driven by ~20% fewer tape switches, with
// diminishing returns.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv, "Figure 6: number of replicas of hot data",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig06_replica_count", options);
  ExperimentConfig base = PaperBaseConfig(options);
  base.layout.layout = HotLayout::kVertical;
  base.layout.start_position = 1.0;
  std::cout << "Figure 6 | " << ParamCaption(base)
            << " | dynamic max-bandwidth | replicas at tape end\n";

  const int replica_counts[] = {0, 1, 3, 5, 7, 9};
  std::vector<GridPoint> grid;
  for (const int nr : replica_counts) {
    ExperimentConfig config = base;
    config.layout.num_replicas = nr;
    if (nr == 0) config.layout.start_position = 0.0;  // best for NR-0
    ctx.AddLoadSweep(&grid, "NR-" + std::to_string(nr), config);
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"replicas", "load", "throughput_req_min", "delay_min",
               "switches_per_h"});
  for (size_t i = 0; i < grid.size(); ++i) {
    table.AddRow({static_cast<int64_t>(grid[i].config.layout.num_replicas),
                  static_cast<int64_t>(grid[i].load),
                  results[i].sim.requests_per_minute,
                  results[i].sim.mean_delay_minutes,
                  results[i].sim.tape_switches_per_hour});
  }
  ctx.Emit("replication curves (vertical layout)", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
