// Probe of the paper's §4.3 suspicion: "We did not experiment with
// quantities of hot data larger than the capacity of one tape, but we
// suspect that a vertical layout in that case would lead to excessive tape
// switching."
//
// With hot data spanning three tapes (PH-30), the vertical layout must
// bounce between the dedicated hot tapes (each hot request binds to
// exactly one of them), while the horizontal layout serves hot requests on
// whichever tape is mounted. This bench measures throughput, delay, and
// switch rates for both layouts across PH and load.

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Ablation: vertical layouts beyond one hot tape "
                     "(paper §4.3 suspicion)",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("abl_vertical", options);

  std::vector<GridPoint> grid;
  for (const int ph : {10, 30}) {
    for (const HotLayout layout :
         {HotLayout::kVertical, HotLayout::kHorizontal}) {
      ExperimentConfig config = PaperBaseConfig(options);
      config.layout.hot_fraction = ph / 100.0;
      config.layout.layout = layout;
      config.layout.start_position = 0.0;
      // RH scaled so hot data stays "hot" relative to its footprint.
      config.sim.workload.hot_request_fraction = ph == 10 ? 0.40 : 0.60;
      ctx.AddLoadSweep(&grid,
                       "PH-" + std::to_string(ph) + "/" +
                           (layout == HotLayout::kVertical ? "vertical"
                                                           : "horizontal"),
                       config);
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table table({"ph_pct", "layout", "load", "throughput_req_min",
               "delay_min", "switches_per_h"});
  for (size_t i = 0; i < grid.size(); ++i) {
    const ExperimentConfig& config = grid[i].config;
    table.AddRow(
        {static_cast<int64_t>(config.layout.hot_fraction * 100 + 0.5),
         std::string(config.layout.layout == HotLayout::kVertical
                         ? "vertical"
                         : "horizontal"),
         static_cast<int64_t>(grid[i].load),
         results[i].sim.requests_per_minute,
         results[i].sim.mean_delay_minutes,
         results[i].sim.tape_switches_per_hour});
  }
  ctx.Emit("vertical vs horizontal as hot data outgrows one tape", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
