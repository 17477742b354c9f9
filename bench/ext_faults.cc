// Extension: fault injection, retry/failover, and degraded-mode operation.
//
// The paper studies replication as a performance mechanism; tape archives
// deploy it first for reliability. This bench quantifies the reliability
// side with the deterministic fault model (sim/fault_model.h): permanent
// media errors mask catalog replicas, requests fail over to surviving
// copies (or complete with an error when none remains), and ambient
// transient read errors, robot handoff slips, and drive failures tax the
// timeline. Swept: permanent-media-error rate x replica count x
// horizontal/vertical placement, closed model at a fixed population.
//
// Expected shape: at a zero rate every cell matches the fault-free
// baseline bit for bit; at nonzero rates NR-0 accumulates failed requests
// (each dead block is lost for good) while NR >= 2 converts nearly all of
// them into failovers, so availability stays near 1 and completions stay
// strictly ahead of NR-0. Every cell satisfies the conservation identity
// issued == completed + failed + outstanding (TJ_CHECKed here).

#include "bench_common.h"

namespace tapejuke {
namespace bench {
namespace {

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Extension: fault injection and replication as an "
                     "availability mechanism",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("ext_faults", options);
  ExperimentConfig base = PaperBaseConfig(options);
  base.sim.workload.queue_length = 60;  // fixed mid-grid population
  std::cout << "Extension: faults | " << ParamCaption(base)
            << " | dynamic max-bandwidth | QL-60\n";

  // Rate 0 is the genuinely fault-free baseline (every class disabled);
  // nonzero permanent rates ride with ambient transient / robot / drive
  // faults so the retry, handoff, and repair machinery is exercised too.
  const double perm_rates[] = {0.0, 1e-4, 1e-3};
  const int replica_counts[] = {0, 2, 4};
  const struct {
    const char* name;
    HotLayout layout;
  } layouts[] = {{"horizontal", HotLayout::kHorizontal},
                 {"vertical", HotLayout::kVertical}};

  std::vector<GridPoint> grid;
  std::vector<std::string> layout_names;  // parallel to grid
  for (const auto& lay : layouts) {
    for (const int nr : replica_counts) {
      for (const double rate : perm_rates) {
        ExperimentConfig config = base;
        config.layout.layout = lay.layout;
        config.layout.num_replicas = nr;
        if (lay.layout == HotLayout::kVertical) {
          // Replicas at the tape ends (SP-1.0, §4.5); NR-0 prefers SP-0.
          config.layout.start_position = nr == 0 ? 0.0 : 1.0;
        }
        if (rate > 0) {
          FaultConfig& faults = config.sim.faults;
          faults.permanent_media_error_prob = rate;
          faults.whole_tape_fraction = 0.2;
          faults.transient_read_error_prob = 0.01;
          faults.max_read_retries = 3;
          faults.drive_mtbf_seconds = 500'000;
          faults.drive_mttr_seconds = 2'000;
          faults.robot_fault_prob = 0.01;
        }
        grid.push_back({lay.name + std::string(" NR-") + std::to_string(nr),
                        rate, config});
        layout_names.push_back(lay.name);
      }
    }
  }
  const std::vector<ExperimentResult> results = ctx.RunGrid(grid);

  Table availability({"layout", "replicas", "perm_error_rate", "issued",
                      "completed", "failed", "availability",
                      "throughput_req_min"});
  Table machinery({"layout", "replicas", "perm_error_rate", "transient",
                   "retries", "escalated", "perm_errors", "dead_tapes",
                   "masked", "failovers", "drive_fail", "robot_faults"});
  availability.set_precision(4);  // the 1e-4 rate column needs 4 decimals
  machinery.set_precision(4);
  for (size_t i = 0; i < grid.size(); ++i) {
    const SimulationResult& sim = results[i].sim;
    // Degraded-mode bookkeeping must never lose a request.
    TJ_CHECK_EQ(sim.completed_total + sim.failed_requests +
                    sim.outstanding_at_end,
                sim.issued_requests)
        << "conservation violated at " << grid[i].series;
    const auto nr =
        static_cast<int64_t>(grid[i].config.layout.num_replicas);
    availability.AddRow({layout_names[i], nr, grid[i].load,
                         sim.issued_requests, sim.completed_total,
                         sim.failed_requests, sim.availability,
                         sim.requests_per_minute});
    machinery.AddRow({layout_names[i], nr, grid[i].load,
                      sim.faults.transient_read_errors,
                      sim.faults.read_retries, sim.faults.reads_escalated,
                      sim.faults.permanent_media_errors,
                      sim.faults.dead_tapes, sim.faults.replicas_masked,
                      sim.faults.failovers, sim.faults.drive_failures,
                      sim.faults.robot_faults});
  }
  ctx.Emit("availability under permanent media errors", &availability);
  ctx.Emit("fault machinery counters", &machinery);
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
