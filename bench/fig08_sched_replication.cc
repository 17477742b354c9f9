// Figure 8: relative performance of scheduling algorithms with replication.
//
// PH-10 RH-40 NR-9 SP-1.0 (full replication at the tape ends). Compares the
// dynamic greedy algorithms against the three envelope variants. Paper
// answer (Q6): max-bandwidth envelope is the best choice — ~6% throughput
// and ~5% response improvement over dynamic max-bandwidth — and since it
// degenerates to dynamic max-bandwidth without replicas, it is always
// preferred.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Figure 8: scheduling algorithms with full replication",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig08_sched_replication", options);
  ExperimentConfig base = PaperBaseConfig(options);
  base.layout.num_replicas = 9;
  base.layout.start_position = 1.0;
  std::cout << "Figure 8 | " << ParamCaption(base) << "\n";

  const char* algorithms[] = {
      "static-max-bandwidth",
      "dynamic-round-robin",
      "dynamic-max-requests",
      "dynamic-max-bandwidth",
      "dynamic-oldest-max-bandwidth",
      "envelope-oldest-max-requests",
      "envelope-max-requests",
      "envelope-max-bandwidth",
  };

  std::vector<GridPoint> grid;
  for (const char* name : algorithms) {
    ExperimentConfig config = base;
    config.algorithm = AlgorithmSpec::Parse(name).value();
    ctx.AddLoadSweep(&grid, config.algorithm.Name(), config);
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"algorithm", "load", "throughput_req_min", "delay_min",
               "p95_delay_min"});
  for (size_t i = 0; i < grid.size(); ++i) {
    table.AddRow({grid[i].series, static_cast<int64_t>(grid[i].load),
                  results[i].sim.requests_per_minute,
                  results[i].sim.mean_delay_minutes,
                  results[i].sim.p95_delay_seconds / 60.0});
  }
  ctx.Emit("throughput/delay parametric curves (full replication)", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
