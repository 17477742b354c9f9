// Extension bench: closed-form model vs simulation.
//
// Compares PredictRoundRobin against the static round-robin simulator
// across queue lengths, skews, and layouts, reporting prediction error.

#include <cmath>

#include "bench_common.h"
#include "core/analytic.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: analytic round-robin model vs simulation",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_analytic", options);
  ExperimentConfig base = PaperBaseConfig(options);
  base.algorithm = AlgorithmSpec::Parse("static-round-robin").value();

  struct Scenario {
    const char* label;
    HotLayout layout;
    double rh;
  };
  const Scenario scenarios[] = {
      {"horizontal", HotLayout::kHorizontal, 0.40},
      {"horizontal", HotLayout::kHorizontal, 0.80},
      {"vertical", HotLayout::kVertical, 0.40},
  };
  std::vector<GridPoint> grid;
  for (const Scenario& scenario : scenarios) {
    for (const int64_t queue : {20L, 60L, 140L}) {
      ExperimentConfig config = base;
      config.layout.layout = scenario.layout;
      config.sim.workload.hot_request_fraction = scenario.rh;
      config.sim.workload.queue_length = queue;
      config.sim.workload.model = QueuingModel::kClosed;
      grid.push_back(GridPoint{std::string(scenario.label) + "/RH-" +
                                   std::to_string(static_cast<int>(
                                       scenario.rh * 100 + 0.5)),
                               static_cast<double>(queue), config});
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  // The analytic predictions are closed-form and cheap: evaluated serially
  // against each simulated point.
  Table table({"layout", "rh", "queue", "sim_req_min", "model_req_min",
               "thr_err_pct", "sim_delay_min", "model_delay_min",
               "delay_err_pct"});
  table.set_precision(2);
  for (size_t i = 0; i < grid.size(); ++i) {
    const Scenario& scenario = scenarios[i / 3];
    const ExperimentConfig& config = grid[i].config;
    const ExperimentResult& sim = results[i];

    AnalyticInputs inputs;
    inputs.jukebox = config.jukebox;
    inputs.layout = config.layout;
    inputs.hot_request_fraction = scenario.rh;
    inputs.queue_length = config.sim.workload.queue_length;
    const AnalyticPrediction model = PredictRoundRobin(inputs).value();

    auto err_pct = [](double predicted, double measured) {
      return measured > 0 ? 100.0 * (predicted - measured) / measured : 0.0;
    };
    table.AddRow({std::string(scenario.label), scenario.rh,
                  config.sim.workload.queue_length,
                  sim.sim.requests_per_minute, model.throughput_req_per_min,
                  err_pct(model.throughput_req_per_min,
                          sim.sim.requests_per_minute),
                  sim.sim.mean_delay_minutes, model.mean_delay_minutes,
                  err_pct(model.mean_delay_minutes,
                          sim.sim.mean_delay_minutes)});
  }
  ctx.Emit("closed-form round-robin model vs simulation", &table);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
