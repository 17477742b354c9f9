// Figure 9: the relationship between skew and performance improvements.
//
// PH-10, max-bandwidth envelope, best placements (SP-0 without replication,
// SP-1 with full replication). Curves for RH in {20, 40, 60, 80}%, dotted
// (NR-0) vs solid (NR-9) in the paper. Paper answer (Q7): more skew is
// uniformly better; full replication improves throughput up to ~25% and
// response time up to ~19% over no replication.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv, "Figure 9: skew vs performance",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig09_skew", options);
  ExperimentConfig base = PaperBaseConfig(options);
  base.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  std::cout << "Figure 9 | PH-10 | max-bandwidth envelope | "
            << "NR-0 at SP-0 vs NR-9 at SP-1\n";

  std::vector<GridPoint> grid;
  for (const int rh : {20, 40, 60, 80}) {
    for (const int nr : {0, 9}) {
      ExperimentConfig config = base;
      config.sim.workload.hot_request_fraction = rh / 100.0;
      config.layout.num_replicas = nr;
      config.layout.start_position = nr == 0 ? 0.0 : 1.0;
      ctx.AddLoadSweep(&grid,
                       "RH-" + std::to_string(rh) + "/NR-" +
                           std::to_string(nr),
                       config);
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"rh_pct", "replicas", "load", "throughput_req_min",
               "delay_min"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const ExperimentConfig& config = grid[i].config;
    table.AddRow(
        {static_cast<int64_t>(
             config.sim.workload.hot_request_fraction * 100 + 0.5),
         static_cast<int64_t>(config.layout.num_replicas),
         static_cast<int64_t>(grid[i].load),
         results[i].sim.requests_per_minute,
         results[i].sim.mean_delay_minutes});
  }
  ctx.Emit("skew curves", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
