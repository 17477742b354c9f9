// Extension bench: jukebox-farm simulation.
//
// (a) Scaling: farm aggregate throughput with per-box population held
//     constant, plus the per-box population spread (the farm pins each
//     box at its §4.8 fixed split, so the closed-model spread is the
//     remainder distribution, not migration noise).
// (b) Figure 10(b) end to end: the cost-performance ratio of a replicated
//     farm measured by actually simulating both farms at equal total cost
//     and equal total population, rather than scaling one jukebox's queue.

#include <cmath>
#include <iterator>

#include "bench_common.h"
#include "core/farm.h"

namespace tapejuke {
namespace bench {
namespace {

FarmConfig MakeFarm(const BenchOptions& options, int32_t boxes,
                    int64_t total_queue, int32_t replicas, double rh) {
  FarmConfig config;
  config.num_jukeboxes = boxes;
  config.per_jukebox = PaperBaseConfig(options);
  config.per_jukebox.layout.num_replicas = replicas;
  config.per_jukebox.layout.start_position = replicas == 0 ? 0.0 : 1.0;
  config.per_jukebox.sim.workload.hot_request_fraction = rh;
  config.per_jukebox.sim.workload.queue_length = total_queue;
  config.per_jukebox.algorithm =
      AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  return config;
}

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv, "Extension: jukebox farm simulation",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_farm", options);

  // (a) Scaling with constant per-box load.
  const int32_t box_counts[] = {1, 2, 4, 8};
  std::vector<FarmGridPoint> scaling_grid;
  for (const int32_t boxes : box_counts) {
    scaling_grid.push_back(
        FarmGridPoint{"boxes-" + std::to_string(boxes),
                      static_cast<double>(60L * boxes),
                      MakeFarm(options, boxes, 60L * boxes,
                               /*replicas=*/0, 0.40)});
  }
  const std::vector<FarmResult> scaling_results =
      ctx.RunFarmGrid(scaling_grid);

  Table scaling({"boxes", "total_queue", "agg_req_min", "per_box_req_min",
                 "delay_min", "outstanding_stddev"});
  for (size_t i = 0; i < scaling_grid.size(); ++i) {
    const int32_t boxes = box_counts[i];
    const FarmResult& result = scaling_results[i];
    double mean = 0;
    for (const double o : result.mean_outstanding_per_jukebox) {
      mean += o / boxes;
    }
    double var = 0;
    for (const double o : result.mean_outstanding_per_jukebox) {
      var += (o - mean) * (o - mean) / boxes;
    }
    scaling.AddRow({static_cast<int64_t>(boxes), 60L * boxes,
                    result.aggregate.requests_per_minute,
                    result.aggregate.requests_per_minute / boxes,
                    result.aggregate.mean_delay_minutes, std::sqrt(var)});
  }
  ctx.Emit("farm scaling at constant per-box population (60)", &scaling);

  // (b) Figure 10(b), farm form: 10 plain boxes vs 19 replicated boxes
  // (expansion E = 1.9 at PH-10 NR-9) serving the same total population.
  const int skews[] = {40, 80};
  const int64_t total_queue = 600;
  std::vector<FarmGridPoint> cost_grid;
  for (const int rh : skews) {
    cost_grid.push_back(
        FarmGridPoint{"RH-" + std::to_string(rh) + "/non-replicated",
                      static_cast<double>(total_queue),
                      MakeFarm(options, 10, total_queue, 0, rh / 100.0)});
    cost_grid.push_back(
        FarmGridPoint{"RH-" + std::to_string(rh) + "/replicated-NR-9",
                      static_cast<double>(total_queue),
                      MakeFarm(options, 19, total_queue, 9, rh / 100.0)});
  }
  const std::vector<FarmResult> cost_results = ctx.RunFarmGrid(cost_grid);

  Table cost({"rh_pct", "farm", "boxes", "agg_MB_s", "MB_s_per_box",
              "cost_perf_ratio"});
  for (size_t s = 0; s < std::size(skews); ++s) {
    const int rh = skews[s];
    const FarmResult& plain_result = cost_results[2 * s];
    const FarmResult& repl_result = cost_results[2 * s + 1];
    const double plain_per_box =
        plain_result.aggregate.throughput_mb_per_s / 10.0;
    const double repl_per_box =
        repl_result.aggregate.throughput_mb_per_s / 19.0;
    cost.AddRow({static_cast<int64_t>(rh), std::string("non-replicated"),
                 int64_t{10}, plain_result.aggregate.throughput_mb_per_s,
                 plain_per_box, 1.0});
    cost.AddRow({static_cast<int64_t>(rh), std::string("replicated NR-9"),
                 int64_t{19}, repl_result.aggregate.throughput_mb_per_s,
                 repl_per_box, repl_per_box / plain_per_box});
  }
  ctx.Emit(
      "Figure 10(b) measured farm-to-farm (equal total population 600, "
      "cost ~ boxes)",
      &cost);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
