// Figure 5: throughput and latency as a function of hot-data placement,
// no replication.
//
// PH-10 RH-40 NR-0, dynamic max-bandwidth. A family of curves for
// horizontal placements SP in {0, 0.25, 0.5, 0.75, 1.0} plus one vertical
// layout. Paper answer (Q3): vertical is best except at very high
// intensity; for horizontal layouts, hot data belongs at the beginning.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Figure 5: hot-data placement without replication",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig05_hot_placement", options);
  ExperimentConfig base = PaperBaseConfig(options);
  std::cout << "Figure 5 | " << ParamCaption(base)
            << " | dynamic max-bandwidth\n";

  std::vector<GridPoint> grid;
  for (const double sp : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    ExperimentConfig config = base;
    config.layout.start_position = sp;
    ctx.AddLoadSweep(&grid, "SP-" + std::to_string(sp).substr(0, 4),
                     config);
  }
  ExperimentConfig vertical = base;
  vertical.layout.layout = HotLayout::kVertical;
  ctx.AddLoadSweep(&grid, "vertical", vertical);
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"placement", "load", "throughput_req_min", "delay_min"});
  for (size_t i = 0; i < grid.size(); ++i) {
    table.AddRow({grid[i].series, static_cast<int64_t>(grid[i].load),
                  results[i].sim.requests_per_minute,
                  results[i].sim.mean_delay_minutes});
  }
  ctx.Emit("placement curves", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
