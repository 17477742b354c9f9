// Extension: self-healing replication — background scrub and repair with a
// bounded foreground impact.
//
// ext_faults shows replication absorbing permanent media errors; this bench
// closes the loop with the repair subsystem (sim/repair.h): background
// scrub passes surface latent errors before clients do, and a repair queue
// re-replicates each dead replica onto spare capacity, throttled by a
// token-bucket bandwidth budget so client service is taxed at one-block
// granularity at most. Swept: repair mode (off / repair / repair+scrub /
// throttled repair+scrub) x permanent-media-error rate x replica count,
// open model at a fixed arrival rate (idle drive time is what scrub and
// repair consume). The layout keeps ~10% of every tape as spare capacity
// for repair targets.
//
// Expected shape: at rate 0 every mode matches the fault-free baseline bit
// for bit (no fault or repair code runs). At nonzero rates the no-repair
// baseline's live-replica fraction decays for the rest of the run, while
// the repair modes re-protect masked replicas with a bounded
// time-to-re-protection, ending with a strictly higher live-replica
// fraction; scrub converts client-visible media errors into
// scrub-detected ones. Each cell satisfies both conservation identities
// (requests and repair tasks), TJ_CHECKed here.

#include <cmath>

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  options.queuing = "open";  // idle time is the repair budget's raw material
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: background scrub and replica repair with a "
                     "bounded foreground impact",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_repair", options);
  ExperimentConfig base = PaperBaseConfig(options);
  // Light open-model load: scrub and repair live off idle drive time, so
  // the arrival gaps must leave some (the paper grid's light end).
  base.sim.workload.model = QueuingModel::kOpen;
  base.sim.workload.mean_interarrival_seconds = 240;
  std::cout << "Extension: scrub + repair | " << ParamCaption(base)
            << " | dynamic max-bandwidth | open, 240 s interarrival\n";

  struct Mode {
    const char* name;
    bool repair;
    double scrub_interval;
    double bandwidth_mb_per_s;
  };
  const Mode modes[] = {
      {"no-repair", false, 0.0, 0.0},
      {"repair", true, 0.0, 20.0},
      {"repair+scrub", true, 100'000.0, 20.0},
      {"throttled", true, 100'000.0, 2.0},
  };
  const double perm_rates[] = {0.0, 2e-3};
  const int replica_counts[] = {2, 4};

  std::vector<GridPoint> grid;
  for (const int nr : replica_counts) {
    for (const double rate : perm_rates) {
      for (const Mode& mode : modes) {
        ExperimentConfig config = base;
        config.layout.num_replicas = nr;
        // Leave ~10% of the archive unoccupied as repair spare capacity.
        const Jukebox probe(config.jukebox);
        config.layout.logical_blocks_override =
            LayoutBuilder::MaxLogicalBlocks(probe, config.layout) * 9 / 10;
        if (rate > 0) {
          // Region-only permanent errors (ext_faults covers whole-tape
          // loss) plus ambient transients so scrub retries are exercised.
          config.sim.faults.permanent_media_error_prob = rate;
          config.sim.faults.transient_read_error_prob = 0.005;
          config.sim.faults.max_read_retries = 3;
          config.sim.repair.enable_repair = mode.repair;
          config.sim.repair.scrub_interval_seconds = mode.scrub_interval;
          config.sim.repair.repair_bandwidth_mb_per_s =
              mode.bandwidth_mb_per_s;
        }
        grid.push_back({std::string(mode.name) + " NR-" + std::to_string(nr),
                        rate, config});
      }
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table durability({"series", "perm_error_rate", "issued", "completed",
                    "failed", "availability", "live_replica_fraction",
                    "blocks_lost", "degraded_reads"});
  Table machinery({"series", "perm_error_rate", "scrub_passes",
                   "scrub_blocks", "scrub_detected", "enqueued", "completed",
                   "abandoned", "impossible", "backlog_final", "ttr_mean_s",
                   "ttr_max_s"});
  Table foreground({"series", "perm_error_rate", "mean_delay_s",
                    "p95_delay_s", "switches_per_hour", "scrub_drive_s",
                    "repair_drive_s"});
  durability.set_precision(4);
  machinery.set_precision(4);
  foreground.set_precision(4);

  for (size_t i = 0; i < grid.size(); ++i) {
    const SimulationResult& sim = results[i].sim;
    const RepairStats& repair = sim.repair;
    if (sim.fault_injection) {
      TJ_CHECK_EQ(sim.completed_total + sim.failed_requests +
                      sim.outstanding_at_end,
                  sim.issued_requests)
          << "request conservation violated at " << grid[i].series;
    }
    if (sim.repair_enabled) {
      // Every enqueued repair task is accounted for exactly once.
      TJ_CHECK_EQ(repair.repairs_enqueued,
                  repair.repairs_completed + repair.repairs_abandoned +
                      repair.backlog_final)
          << "repair-task conservation violated at " << grid[i].series;
      // Bounded time-to-re-protection: no completed repair waited longer
      // than the run itself (and the mean is well under it).
      TJ_CHECK_LE(repair.reprotect_seconds_max, sim.simulated_seconds);
    }
    const double ttr_mean =
        repair.repairs_completed > 0
            ? repair.reprotect_seconds_sum /
                  static_cast<double>(repair.repairs_completed)
            : 0.0;
    durability.AddRow({grid[i].series, grid[i].load, sim.issued_requests,
                       sim.completed_total, sim.failed_requests,
                       sim.availability, sim.live_replica_fraction,
                       sim.faults.blocks_lost, sim.faults.degraded_reads});
    machinery.AddRow({grid[i].series, grid[i].load, repair.scrub_passes,
                      repair.scrub_blocks_read, repair.scrub_errors_detected,
                      repair.repairs_enqueued, repair.repairs_completed,
                      repair.repairs_abandoned, repair.repairs_impossible,
                      repair.backlog_final, ttr_mean,
                      repair.reprotect_seconds_max});
    foreground.AddRow({grid[i].series, grid[i].load, sim.mean_delay_seconds,
                       sim.p95_delay_seconds, sim.tape_switches_per_hour,
                       repair.scrub_seconds, repair.repair_write_seconds});

  }
  ctx.Emit("durability: availability and live redundancy", &durability);
  ctx.Emit("scrub/repair machinery", &machinery);
  ctx.Emit("foreground impact", &foreground);

  // Self-healing pays off, deterministically: within every run the final
  // live-replica fraction satisfies the exact identity
  //   live = 1 - (masked - repaired) / total_copies,
  // so whenever repairs completed, the run ends strictly better protected
  // than its own no-repair counterfactual (1 - masked / total_copies).
  // Cross-mode comparisons would be noise — each cell draws its own fault
  // stream, and single-copy cold blocks are unrepairable in every mode.
  for (size_t i = 0; i < grid.size(); ++i) {
    const SimulationResult& sim = results[i].sim;
    if (!sim.fault_injection) continue;
    const double total =
        static_cast<double>(results[i].layout.total_copies);
    const double counterfactual =
        1.0 - static_cast<double>(sim.faults.replicas_masked) / total;
    const double expected =
        counterfactual +
        static_cast<double>(sim.repair.repairs_completed) / total;
    TJ_CHECK_LE(std::abs(sim.live_replica_fraction - expected), 1e-9)
        << grid[i].series << " live-replica identity violated";
    if (sim.repair.repairs_completed > 0) {
      TJ_CHECK_GT(sim.live_replica_fraction, counterfactual)
          << grid[i].series
          << " repairs completed but protection did not improve";
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
