// Extension bench: the §4.8 gradual-fill lifecycle — replicas "for free".
//
// Starts from the paper's recommended fill pattern (hot data on a dedicated
// tape, the other tapes part-filled with cold data) and appends replicas of
// hot blocks to the tape ends piggybacked on read sweeps. The per-epoch
// series shows throughput and latency improving as the replica population
// grows, without any dedicated write-only passes in a busy (closed) system.

#include "bench_common.h"
#include "sched/envelope_scheduler.h"
#include "sim/lifecycle.h"

namespace tapejuke {
namespace bench {
namespace {

struct PointOutput {
  std::vector<EpochStats> epochs;
  int64_t replicas_written = 0;
  int64_t fill_target = 0;
};

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

  // Point 0: baseline (spare capacity left empty). Point 1: gradual fill.
  std::vector<PointOutput> outputs(2);
  ctx.RunParallel(outputs.size(), [&](size_t i) -> Status {
    const bool fill = i == 1;
    Jukebox jukebox(base.jukebox);
    LayoutSpec replicated;
    replicated.layout = HotLayout::kVertical;
    replicated.num_replicas = 9;
    replicated.start_position = 1.0;
    LayoutSpec spare;
    spare.layout = HotLayout::kVertical;
    spare.logical_blocks_override =
        LayoutBuilder::MaxLogicalBlocks(jukebox, replicated);
    StatusOr<Catalog> catalog_or = LayoutBuilder::Build(&jukebox, spare);
    if (!catalog_or.ok()) return catalog_or.status();
    Catalog catalog = std::move(catalog_or).value();
    EnvelopeScheduler scheduler(&jukebox, &catalog,
                                TapePolicy::kMaxBandwidth);
    SimulationConfig sim_config = base.sim;
    sim_config.warmup_seconds = 0;  // epochs cover the whole run
    sim_config.workload.queue_length = 60;
    sim_config.workload.seed = ctx.PointSeed(i);
    // Point indices follow RunParallel order.
    ctx.AttachTrace(i, &sim_config);
    LifecycleConfig lifecycle;
    lifecycle.fill_budget_seconds = fill ? 240.0 : 0.0;
    lifecycle.fill_on_idle = fill;
    lifecycle.num_epochs = 10;
    LifecycleSimulator sim(&jukebox, &catalog, &scheduler, sim_config,
                           lifecycle);
    outputs[i].epochs = sim.Run();
    outputs[i].replicas_written = sim.replicas_written();
    outputs[i].fill_target = sim.fill_target();
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
