// Ablations of the envelope-extension algorithm's design choices (§3.2):
// step-5 envelope shrinking and the step-2 replica tie-break, plus the
// algorithm-behaviour counters that explain *when* each mechanism can fire.
//
// Structural finding (documented in EXPERIMENTS.md): with the paper's best
// layout — full replication at the tape ends — the initial envelope is
// pinned by cold (non-replicated) requests in the front half of every
// tape, so no hot replica is ever inside two envelopes at once: step 2
// never faces a multi-replica choice, and step 5 never finds a shrinkable
// edge. The shrink machinery only engages for partial replication at the
// tape ends (extensions into hot regions can then overlap), and even there
// its effect is small. The step-2 tie-break affects only the advisory
// assignment, which influences behaviour solely through extension and
// shrink — so with those quiet, it has no observable effect at all.

#include <iterator>

#include "bench_common.h"
#include "sched/envelope_scheduler.h"

namespace tapejuke {
namespace bench {
namespace {

struct Variant {
  const char* label;
  bool shrink;
  bool paper_tiebreak;
};

constexpr Variant kVariants[] = {
    {"full (paper)", true, true},
    {"no shrink (step 5 off)", false, true},
    {"naive replica tie-break", true, false},
};

struct PointOutput {
  SimulationResult result;
  EnvelopeScheduler::EnvelopeCounters counters;
};

int Main(int argc, char** argv) {
  BenchOptions options;
  int exit_code = 0;
  if (!options.Parse(argc, argv,
                     "Ablations: envelope shrinking and replica tie-break",
                     &exit_code)) {
    return exit_code;
  }
  BenchContext ctx("abl_envelope", options);

  ExperimentConfig full = PaperBaseConfig(options);
  full.layout.layout = HotLayout::kVertical;
  full.layout.num_replicas = 9;
  full.layout.start_position = 1.0;

  ExperimentConfig partial = PaperBaseConfig(options);
  partial.layout.num_replicas = 3;
  partial.layout.start_position = 1.0;

  struct Group {
    const char* title;
    ExperimentConfig base;
  };
  const Group groups[] = {
      {"full replication at tape ends (paper's best layout): shrink "
       "cannot fire",
       full},
      {"partial replication (NR-3, horizontal, tape ends): shrink "
       "engages",
       partial},
  };
  constexpr size_t kVariantCount = std::size(kVariants);
  const size_t num_points = std::size(groups) * kVariantCount;

  std::vector<PointOutput> outputs(num_points);
  ctx.RunParallel(num_points, [&](size_t i) -> Status {
    const Group& group = groups[i / kVariantCount];
    const Variant& variant = kVariants[i % kVariantCount];
    Jukebox jukebox(group.base.jukebox);
    StatusOr<Catalog> catalog_or =
        LayoutBuilder::Build(&jukebox, group.base.layout);
    if (!catalog_or.ok()) return catalog_or.status();
    // Mutable: the --fault-* flags mask replicas dead in the catalog.
    Catalog catalog = std::move(catalog_or).value();
    SchedulerOptions sched_options;
    sched_options.envelope_shrink = variant.shrink;
    sched_options.paper_replica_tiebreak = variant.paper_tiebreak;
    EnvelopeScheduler scheduler(&jukebox, &catalog,
                                TapePolicy::kMaxBandwidth, sched_options);
    SimulationConfig sim_config = group.base.sim;
    sim_config.workload.queue_length = 60;
    sim_config.workload.seed = ctx.PointSeed(i);
    // Point indices follow RunParallel order (group-major, variant-minor).
    ctx.AttachTrace(i, &sim_config);
    Simulator sim(&jukebox, &catalog, &scheduler, sim_config);
    outputs[i].result = sim.Run();
    outputs[i].counters = scheduler.counters();
    return Status::Ok();
  });

  for (size_t g = 0; g < std::size(groups); ++g) {
    Table table({"variant", "throughput_req_min", "delay_min", "ext_rounds",
                 "shrink_moves", "multi_choices", "sweep_trims"});
    for (size_t v = 0; v < kVariantCount; ++v) {
      const size_t i = g * kVariantCount + v;
      const PointOutput& out = outputs[i];
      table.AddRow({std::string(kVariants[v].label),
                    out.result.requests_per_minute,
                    out.result.mean_delay_minutes,
                    out.counters.extension_rounds,
                    out.counters.shrink_moves,
                    out.counters.multi_replica_choices,
                    out.counters.sweep_trims});
      ctx.RecordResult(std::string(groups[g].title) + " / " +
                           kVariants[v].label,
                       60.0, out.result);
    }
    ctx.Emit(groups[g].title, &table);
  }
  return ctx.Finish();
}

}  // namespace
}  // namespace bench
}  // namespace tapejuke

int main(int argc, char** argv) {
  return tapejuke::bench::Main(argc, argv);
}
