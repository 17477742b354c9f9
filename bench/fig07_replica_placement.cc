// Figure 7: throughput and latency as a function of replica placement.
//
// PH-10 RH-40 NR-9 (full replication). A family of curves as the placement
// of hot data + replicas moves from the beginning (SP-0) to the end
// (SP-1.0) of the tapes. Paper answer (Q5): with replication, place hot
// data and replicas at the tape *ends* (~4% throughput, ~3% response gain
// over SP-0) — the opposite of the no-replication answer.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Figure 7: replica placement with full replication",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig07_replica_placement", options);
  ExperimentConfig base = PaperBaseConfig(options);
  base.layout.num_replicas = 9;
  std::cout << "Figure 7 | " << ParamCaption(base)
            << " | dynamic max-bandwidth\n";

  std::vector<GridPoint> grid;
  for (const double sp : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    ExperimentConfig config = base;
    config.layout.start_position = sp;
    ctx.AddLoadSweep(&grid, "SP-" + std::to_string(sp).substr(0, 4),
                     config);
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"placement", "load", "throughput_req_min", "delay_min"});
  for (size_t i = 0; i < grid.size(); ++i) {
    table.AddRow({grid[i].series, static_cast<int64_t>(grid[i].load),
                  results[i].sim.requests_per_minute,
                  results[i].sim.mean_delay_minutes});
  }
  ctx.Emit("replica placement curves", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
