// Cross-feature interaction tests: the extensions compose with each other
// and with the paper's core machinery.

#include <gtest/gtest.h>

#include "core/farm.h"
#include "sched/envelope_scheduler.h"
#include "sched/greedy_scheduler.h"
#include "sched/validating_scheduler.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

TEST(CrossFeature, ZipfWorkloadOnFarm) {
  FarmConfig config;
  config.num_jukeboxes = 2;
  config.per_jukebox.sim.duration_seconds = 300'000;
  config.per_jukebox.sim.warmup_seconds = 30'000;
  config.per_jukebox.sim.workload.queue_length = 120;
  config.per_jukebox.sim.workload.skew = SkewModel::kZipf;
  config.per_jukebox.sim.workload.zipf_theta = 0.9;
  config.per_jukebox.sim.workload.seed = 31;
  const FarmResult result = FarmSimulator(config).Run();
  EXPECT_GT(result.aggregate.completed_requests, 1000);
  EXPECT_NEAR(result.aggregate.mean_outstanding, 120.0, 1.0);
}

TEST(CrossFeature, TraceReplayThroughEnvelopeWithReplication) {
  Jukebox probe(PaperJukebox());
  LayoutSpec layout;
  layout.num_replicas = 9;
  layout.start_position = 1.0;
  const Catalog catalog_probe =
      LayoutBuilder::Build(&probe, layout).value();
  WorkloadConfig workload;
  workload.mean_interarrival_seconds = 70;
  workload.seed = 41;
  const auto trace = SynthesizeTrace(catalog_probe, workload, 300'000);

  auto run = [&](const std::string& algorithm) {
    Jukebox jukebox(PaperJukebox());
    Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();
    const auto scheduler = CreateScheduler(
        AlgorithmSpec::Parse(algorithm).value(), &jukebox, &catalog);
    SimulationConfig sim_config;
    sim_config.duration_seconds = 300'000;
    sim_config.warmup_seconds = 30'000;
    Simulator sim(&jukebox, &catalog, scheduler.get(), sim_config,
                  TraceToRequests(catalog, trace).value());
    return sim.Run();
  };
  // The same trace replayed through two schedulers: identical offered
  // load, so the delay comparison is perfectly paired.
  const SimulationResult dynamic = run("dynamic-max-bandwidth");
  const SimulationResult envelope = run("envelope-max-bandwidth");
  EXPECT_GT(dynamic.completed_requests, 1000);
  EXPECT_LE(envelope.mean_delay_seconds, dynamic.mean_delay_seconds);
}

TEST(CrossFeature, ValidatedEnvelopeUnderZipfAndReplication) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec layout;
  layout.num_replicas = 5;
  layout.start_position = 1.0;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();
  SchedulerOptions options;
  options.validate_envelope = true;
  ValidatingScheduler scheduler(
      std::make_unique<EnvelopeScheduler>(&jukebox, &catalog,
                                          TapePolicy::kMaxBandwidth, options),
      &jukebox, &catalog);
  SimulationConfig sim_config;
  sim_config.duration_seconds = 200'000;
  sim_config.warmup_seconds = 0;
  sim_config.workload.queue_length = 80;
  sim_config.workload.skew = SkewModel::kZipf;
  sim_config.workload.zipf_theta = 1.0;
  sim_config.workload.seed = 43;
  Simulator sim(&jukebox, &catalog, &scheduler, sim_config);
  const SimulationResult result = sim.Run();
  EXPECT_EQ(scheduler.arrivals_seen(),
            scheduler.requests_served() + scheduler.outstanding());
  EXPECT_EQ(scheduler.requests_served(), result.completed_requests);
}

TEST(CrossFeature, MultiTapeVerticalLifecycleFill) {
  // PH-20: two dedicated hot tapes; the lifecycle filler still converges
  // to a copy of every hot block on every tape.
  Jukebox jukebox(PaperJukebox());
  LayoutSpec replicated;
  replicated.hot_fraction = 0.20;
  replicated.layout = HotLayout::kVertical;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  LayoutSpec spare;
  spare.hot_fraction = 0.20;
  spare.layout = HotLayout::kVertical;
  spare.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(jukebox, replicated);
  Catalog catalog = LayoutBuilder::Build(&jukebox, spare).value();
  EnvelopeScheduler scheduler(&jukebox, &catalog,
                              TapePolicy::kMaxBandwidth);
  SimulationConfig sim_config;
  sim_config.duration_seconds = 1'200'000;
  sim_config.warmup_seconds = 0;
  sim_config.workload.queue_length = 60;
  sim_config.workload.seed = 47;
  sim_config.lifecycle.emplace().fill_budget_seconds = 240;
  Simulator sim(&jukebox, &catalog, &scheduler, sim_config);
  const LifecycleStats stats = sim.Run().lifecycle;
  EXPECT_EQ(stats.replicas_written, stats.fill_target);
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    EXPECT_EQ(catalog.ReplicasOf(b).size(),
              static_cast<size_t>(jukebox.num_tapes()));
  }
}

}  // namespace
}  // namespace tapejuke
