// Extension bench: Zipf popularity (generalizing the paper's hot/cold
// skew, Figure 9 style).
//
// The paper's two-level skew is a coarse proxy for the rank-popularity
// curves real archives exhibit. Here block id == popularity rank and the
// layout places the top-PH% ranks in the hot region, so the paper's
// placement and replication machinery applies unchanged; the question is
// whether its conclusions (more skew -> better; replication pays off more
// at higher skew) survive the smoother distribution. theta ~= 0.8 yields a
// hot-region hit fraction comparable to RH-40..60.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: Zipf popularity vs replication",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_zipf", options);
  ExperimentConfig base = PaperBaseConfig(options);
  base.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  base.sim.workload.skew = SkewModel::kZipf;
  std::cout << "Zipf extension | PH-10 layout | max-bandwidth envelope | "
               "queue 60\n";

  std::vector<GridPoint> grid;
  for (const double theta : {0.0, 0.4, 0.8, 1.2}) {
    for (const int nr : {0, 9}) {
      ExperimentConfig config = base;
      config.sim.workload.zipf_theta = theta;
      config.sim.workload.queue_length = 60;
      config.layout.num_replicas = nr;
      config.layout.start_position = nr == 0 ? 0.0 : 1.0;
      grid.push_back(GridPoint{"theta-" + std::to_string(theta).substr(0, 3) +
                                   "/NR-" + std::to_string(nr),
                               60.0, config});
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"theta", "replicas", "throughput_req_min", "delay_min",
               "switches_per_h"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const ExperimentConfig& config = grid[i].config;
    table.AddRow({config.sim.workload.zipf_theta,
                  static_cast<int64_t>(config.layout.num_replicas),
                  results[i].sim.requests_per_minute,
                  results[i].sim.mean_delay_minutes,
                  results[i].sim.tape_switches_per_hour});
  }
  ctx.Emit("throughput vs Zipf exponent, with and without replication",
           &table);
  std::cout << "\nExpected shape (and the paper's Q7 carried over): higher "
               "theta helps both\nschemes, and the replication gain widens "
               "with skew.\n";
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
