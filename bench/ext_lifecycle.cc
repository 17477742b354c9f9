// Extension bench: the §4.8 gradual-fill lifecycle — replicas "for free".
//
// Starts from the paper's recommended fill pattern (hot data on a dedicated
// tape, the other tapes part-filled with cold data) and appends replicas of
// hot blocks to the tape ends piggybacked on read sweeps. The per-epoch
// series shows throughput and latency improving as the replica population
// grows, without any dedicated write-only passes in a busy (closed) system.

#include <utility>

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: gradual replica fill during operation",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_lifecycle", options);
  ExperimentConfig base = PaperBaseConfig(options);
  std::cout << "Lifecycle extension | PH-10 RH-40 | vertical spare-capacity "
               "start | max-bandwidth envelope | queue 60\n";

  // Spare capacity at every tape's end: the layout holds as many logical
  // blocks as full replication at the tape ends would.
  LayoutSpec replicated;
  replicated.layout = HotLayout::kVertical;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  base.layout = LayoutSpec{};
  base.layout.layout = HotLayout::kVertical;
  base.layout.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(Jukebox(base.jukebox), replicated);
  base.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  base.sim.warmup_seconds = 0;  // epochs cover the whole run
  base.sim.workload.queue_length = 60;

  // Point 0: baseline (spare capacity left empty). Point 1: gradual fill.
  std::vector<LifecycleStats> outputs(2);
  ctx.RunParallel(outputs.size(), [&](size_t i) -> Status {
    const bool fill = i == 1;
    ExperimentConfig config = base;
    config.sim.workload.seed = ctx.PointSeed(i);
    // Point indices follow RunParallel order.
    ctx.AttachTrace(i, &config.sim);
    LifecycleConfig& lifecycle = config.sim.lifecycle.emplace();
    lifecycle.fill_budget_seconds = fill ? 240.0 : 0.0;
    lifecycle.fill_on_idle = fill;
    lifecycle.num_epochs = 10;
    StatusOr<ExperimentResult> result = ExperimentRunner::Run(config);
    if (!result.ok()) return result.status();
    outputs[i] = std::move(result).value().sim.lifecycle;
    return Status::Ok();
  });

  for (size_t i = 0; i < outputs.size(); ++i) {
    const bool fill = i == 1;
    const std::vector<EpochStats>& epochs = outputs[i].epochs;
    Table table({"epoch", "fill_pct", "throughput_req_min", "delay_min"});
    for (size_t e = 0; e < epochs.size(); ++e) {
      table.AddRow({static_cast<int64_t>(e + 1),
                    epochs[e].fill_fraction * 100.0,
                    epochs[e].requests_per_minute,
                    epochs[e].mean_delay_minutes});
    }
    ctx.Emit(fill ? "with gradual replica fill (piggybacked)"
                  : "baseline: spare capacity left empty",
             &table);
    if (fill) {
      std::cout << "replicas written: " << outputs[i].replicas_written
                << " / " << outputs[i].fill_target << "\n";
    }
  }
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
