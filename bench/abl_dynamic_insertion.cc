// Ablation: the dynamic incremental scheduler's reverse-phase insertions.
//
// The sweep definition (§2.2) allows a forward phase followed by a reverse
// phase; our dynamic scheduler inserts below-head arrivals into the reverse
// phase (reads on the way back down). This ablation disables that, leaving
// forward-only insertion, to quantify how much the reverse phase buys.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Ablation: reverse-phase insertion in the dynamic "
                     "incremental scheduler",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("abl_dynamic_insertion", options);

  std::vector<GridPoint> grid;
  for (const int nr : {0, 9}) {
    for (const bool reverse : {true, false}) {
      ExperimentConfig config = PaperBaseConfig(options);
      config.layout.num_replicas = nr;
      config.layout.start_position = nr == 0 ? 0.0 : 1.0;
      config.algorithm =
          AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
      config.algorithm.options.allow_reverse_phase = reverse;
      ctx.AddLoadSweep(&grid,
                       "NR-" + std::to_string(nr) + "/reverse-" +
                           (reverse ? "on" : "off"),
                       config);
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"replicas", "reverse_phase", "load", "throughput_req_min",
               "delay_min"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const ExperimentConfig& config = grid[i].config;
    table.AddRow(
        {static_cast<int64_t>(config.layout.num_replicas),
         std::string(config.algorithm.options.allow_reverse_phase ? "on"
                                                                  : "off"),
         static_cast<int64_t>(grid[i].load),
         results[i].sim.requests_per_minute,
         results[i].sim.mean_delay_minutes});
  }
  ctx.Emit("dynamic max-bandwidth with/without reverse-phase inserts",
           &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
