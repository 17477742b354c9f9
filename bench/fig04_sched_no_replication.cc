// Figure 4: relative performance of scheduling algorithms, no replication.
//
// PH-10 RH-40 NR-0 SP-0. Throughput/delay parametric curves (load traced by
// queue length 20..140) for FIFO, the five static algorithms, and the five
// dynamic algorithms. Paper answer (Q2): dynamic max-bandwidth is good for
// all workloads; max-requests is nearly as good; FIFO is a vertical line.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Figure 4: scheduling algorithms without replication",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("fig04_sched_no_replication", options);
  ExperimentConfig base = PaperBaseConfig(options);
  std::cout << "Figure 4 | " << ParamCaption(base) << "\n";

  const char* algorithms[] = {
      "fifo",
      "static-round-robin",
      "static-max-requests",
      "static-max-bandwidth",
      "static-oldest-max-requests",
      "static-oldest-max-bandwidth",
      "dynamic-round-robin",
      "dynamic-max-requests",
      "dynamic-max-bandwidth",
      "dynamic-oldest-max-requests",
      "dynamic-oldest-max-bandwidth",
  };

  std::vector<GridPoint> grid;
  for (const char* name : algorithms) {
    ExperimentConfig config = base;
    config.algorithm = AlgorithmSpec::Parse(name).value();
    ctx.AddLoadSweep(&grid, config.algorithm.Name(), config);
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  // p95 delay included: the fairness benefit of the round-robin/oldest
  // policies at heavy load shows up in the delay tail, not the mean.
  Table table({"algorithm", "load", "throughput_req_min", "delay_min",
               "p95_delay_min"});
  for (size_t i = 0; i < grid.size(); ++i) {
    table.AddRow({grid[i].series, static_cast<int64_t>(grid[i].load),
                  results[i].sim.requests_per_minute,
                  results[i].sim.mean_delay_minutes,
                  results[i].sim.p95_delay_seconds / 60.0});
  }
  ctx.Emit("throughput/delay parametric curves", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
