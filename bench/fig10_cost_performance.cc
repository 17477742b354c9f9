// Figure 10: cost-effectiveness of replication (§4.8).
//
// (a) The analytic storage expansion factor E = 1 + NR * PH as a function
//     of the replica count and the hot percentage.
// (b) The cost-performance ratio of replication vs no replication: each
//     replicated point runs at queue length Q/E (the farm needs E times
//     more jukeboxes, so each sees 1/E of the workload). Curves for four
//     skews. Paper answers (Q8): moderate skew can lose a few percent;
//     very high skew gains ~8% with 2 replicas and ~10% at full
//     replication (~14% at queue 20); spare-capacity replication is free.

#include <algorithm>
#include <cmath>

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int64_t base_queue = 60;
  FlagSet flags("Figure 10: cost-performance of replication");
  flags.AddInt64("base-queue", &base_queue,
                 "non-replicated per-jukebox queue length (paper: 60; "
                 "try 20 for the light-load variant)");
  int exit_code = 0;
  if (!options.Parse(argc, argv, "Figure 10", &exit_code, &flags)) {
    return exit_code;
  }
  BenchContext ctx("fig10_cost_performance", options);

  // (a) Expansion factor: analytic, no simulation.
  Table expansion({"replicas", "PH-5", "PH-10", "PH-20", "PH-30"});
  expansion.set_precision(2);
  for (int nr = 0; nr <= 9; ++nr) {
    expansion.AddRow({static_cast<int64_t>(nr),
                      LayoutBuilder::ExpansionFactor(0.05, nr),
                      LayoutBuilder::ExpansionFactor(0.10, nr),
                      LayoutBuilder::ExpansionFactor(0.20, nr),
                      LayoutBuilder::ExpansionFactor(0.30, nr)});
  }
  ctx.Emit("Figure 10(a): expansion factor E = 1 + NR x PH", &expansion);

  // (b) Cost-performance ratio vs replica count, by skew. The whole
  // rh x nr grid is one flat sweep (the §4.8 Q/E scaling per point);
  // ratios against each skew's NR-0 baseline are computed afterwards.
  ExperimentConfig base = PaperBaseConfig(options);
  base.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  base.sim.workload.model = QueuingModel::kClosed;
  std::cout << "\nFigure 10(b) | PH-10 | queue " << base_queue
            << "/E per jukebox | max-bandwidth envelope\n";
  const int skews[] = {20, 40, 60, 80};
  const int32_t replica_counts[] = {0, 1, 2, 3, 5, 7, 9};
  std::vector<GridPoint> grid;
  for (const int rh : skews) {
    for (const int32_t nr : replica_counts) {
      ExperimentConfig config = base;
      config.sim.workload.hot_request_fraction = rh / 100.0;
      config.layout.num_replicas = nr;
      // Best placements (§4.3 / §4.5): the beginning of tape without
      // replication, the end of tape with replication.
      config.layout.start_position = nr == 0 ? 0.0 : 1.0;
      const double expansion_factor =
          LayoutBuilder::ExpansionFactor(config.layout.hot_fraction, nr);
      const int64_t effective_queue = std::max<int64_t>(
          1, std::llround(static_cast<double>(base_queue) /
                          expansion_factor));
      config.sim.workload.queue_length = effective_queue;
      grid.push_back(GridPoint{"RH-" + std::to_string(rh) + "/NR-" +
                                   std::to_string(nr),
                               static_cast<double>(effective_queue),
                               config});
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table ratio({"rh_pct", "replicas", "expansion", "queue_per_jukebox",
               "throughput_mb_s", "cost_perf_ratio"});
  size_t point = 0;
  for (const int rh : skews) {
    double baseline_throughput = 0;
    for (const int32_t nr : replica_counts) {
      const GridPoint& gp = grid[point];
      const double throughput = results[point].sim.throughput_mb_per_s;
      if (nr == 0) baseline_throughput = throughput;
      ratio.AddRow({static_cast<int64_t>(rh), static_cast<int64_t>(nr),
                    LayoutBuilder::ExpansionFactor(
                        gp.config.layout.hot_fraction, nr),
                    static_cast<int64_t>(gp.load), throughput,
                    baseline_throughput > 0
                        ? throughput / baseline_throughput
                        : 1.0});
      ++point;
    }
  }
  ctx.Emit("Figure 10(b): cost-performance ratio vs replication", &ratio);

  // Spare-capacity comparison (§4.8): the same (smaller) dataset stored
  // three ways. "Spread, spare at tape ends" is the natural state of a
  // gradually filling jukebox — the baseline the paper's "for free"
  // recommendation upgrades. "Packed" compacts cold data onto as few tapes
  // as possible (the paper's cost-performance reference scheme); packing is
  // itself a locality optimization, but it requires rewriting every tape.
  ExperimentConfig replicated = base;
  replicated.layout.layout = HotLayout::kVertical;
  replicated.layout.num_replicas = 9;
  replicated.layout.start_position = 1.0;
  replicated.sim.workload.queue_length = base_queue;
  ExperimentConfig spread = replicated;
  spread.layout.num_replicas = 0;
  spread.layout.start_position = 0.0;
  {
    Jukebox probe(replicated.jukebox);
    spread.layout.logical_blocks_override =
        LayoutBuilder::MaxLogicalBlocks(probe, replicated.layout);
  }
  ExperimentConfig packed = spread;
  packed.layout.pack_cold = true;

  std::vector<GridPoint> spare_grid = {
      {"spread, spare space empty", static_cast<double>(base_queue),
       spread},
      {"packed onto fewest tapes, rest empty",
       static_cast<double>(base_queue), packed},
      {"spread, spare space holds replicas",
       static_cast<double>(base_queue), replicated},
  };
  const std::vector<ExperimentResult> spare_results =
      ctx.RunGrid(spare_grid);

  Table spare_table({"scheme", "throughput_mb_s", "delay_min",
                     "switches_per_h"});
  for (size_t i = 0; i < spare_grid.size(); ++i) {
    spare_table.AddRow({spare_grid[i].series,
                        spare_results[i].sim.throughput_mb_per_s,
                        spare_results[i].sim.mean_delay_minutes,
                        spare_results[i].sim.tape_switches_per_hour});
  }
  ctx.Emit("spare-capacity schemes: same dataset, replicas 'for free'",
           &spare_table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
