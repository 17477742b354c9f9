// Ablation: the rewind-before-eject hardware requirement.
//
// The paper assumes helical-scan drives that must fully rewind before
// ejecting — that assumption is why hot data belongs at the *beginning* of
// the tape without replication (related work [3] shows rewind-to-nearest-
// zone drives prefer organ-pipe/middle placement instead). This ablation
// simulates a hypothetical eject-anywhere drive and re-runs the placement
// comparison: with the rewind gone, the beginning-of-tape advantage should
// shrink and middle placement become competitive.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Ablation: rewind-before-eject vs eject-anywhere",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("abl_rewind", options);

  std::vector<GridPoint> grid;
  for (const bool rewind : {true, false}) {
    for (const double sp : {0.0, 0.5, 1.0}) {
      ExperimentConfig config = PaperBaseConfig(options);
      config.jukebox.rewind_before_eject = rewind;
      config.layout.start_position = sp;
      ctx.AddLoadSweep(&grid,
                       std::string(rewind ? "rewind" : "eject-anywhere") +
                           "/SP-" + std::to_string(sp).substr(0, 3),
                       config);
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"drive", "placement", "load", "throughput_req_min",
               "delay_min"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const ExperimentConfig& config = grid[i].config;
    table.AddRow(
        {std::string(config.jukebox.rewind_before_eject
                         ? "rewind-before-eject"
                         : "eject-anywhere"),
         "SP-" +
             std::to_string(config.layout.start_position).substr(0, 3),
         static_cast<int64_t>(grid[i].load),
         results[i].sim.requests_per_minute,
         results[i].sim.mean_delay_minutes});
  }
  ctx.Emit("placement sensitivity to the rewind requirement", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
