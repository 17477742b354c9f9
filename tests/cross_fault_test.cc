// Cross-fault interaction tests: permanent media errors co-occurring with
// drive failures and whole-tape loss on a multi-drive jukebox, the
// scrub-detects-then-client-reads race under an invariant-checking
// scheduler, and scrub/repair under every fault class on two drives.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/experiment.h"
#include "sched/greedy_scheduler.h"
#include "sched/validating_scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace tapejuke {
namespace {

SimulationConfig CrossFaultSim(uint64_t seed) {
  SimulationConfig sim;
  sim.duration_seconds = 200'000;
  sim.warmup_seconds = 0;
  sim.workload.model = QueuingModel::kClosed;
  sim.workload.queue_length = 40;
  sim.workload.seed = seed;
  // Every fault class at once: permanent errors (some killing the whole
  // tape, possibly one that is mounted in a drive that later fails),
  // transients, robot slips, and frequent drive failures.
  sim.faults.permanent_media_error_prob = 2e-3;
  sim.faults.whole_tape_fraction = 0.3;
  sim.faults.transient_read_error_prob = 0.01;
  sim.faults.robot_fault_prob = 0.01;
  sim.faults.drive_mtbf_seconds = 15'000;
  sim.faults.drive_mttr_seconds = 2'000;
  return sim;
}

TEST(CrossFault, MultiDriveSurvivesMediaErrorsDuringDriveFailures) {
  // 15k-second MTBF across 3 drives over 200k seconds: dozens of drive
  // failures interleaved with media errors, including whole-tape losses of
  // tapes currently jammed in a failed drive. Conservation and forward
  // progress must hold through all of it, across seeds.
  for (const uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    LayoutSpec layout;
    layout.num_replicas = 2;
    layout.start_position = 1.0;
    Jukebox jukebox(WithDrives(3));
    Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();
    GreedyScheduler scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth,
                              /*dynamic=*/true);
    Simulator simulator(&jukebox, &catalog, &scheduler, CrossFaultSim(seed));
    const SimulationResult result = simulator.Run();
    ASSERT_TRUE(result.fault_injection) << "seed " << seed;
    EXPECT_EQ(result.completed_total + result.failed_requests +
                  result.outstanding_at_end,
              result.issued_requests)
        << "seed " << seed;
    EXPECT_GT(result.completed_total, 0) << "seed " << seed;
    EXPECT_GT(result.faults.drive_failures, 0) << "seed " << seed;
    EXPECT_GT(result.faults.permanent_media_errors, 0) << "seed " << seed;
    EXPECT_GT(result.faults.failovers, 0) << "seed " << seed;
    EXPECT_EQ(result.faults.replicas_masked, catalog.dead_replicas())
        << "seed " << seed;
    EXPECT_LE(result.live_replica_fraction, 1.0) << "seed " << seed;
  }
}

TEST(CrossFault, ScrubClientRaceHoldsSchedulerInvariants) {
  // Scrub masks replicas dead between client arrivals and their service;
  // queued requests for scrub-killed blocks must be evicted or failed
  // over, never served from a dead replica. ValidatingScheduler TJ_CHECKs
  // replica placement and sweep order on every pop, and its conservation
  // counters must balance at the end.
  JukeboxConfig jukebox_config;
  Jukebox jukebox(jukebox_config);
  LayoutSpec layout;
  layout.num_replicas = 2;
  layout.start_position = 1.0;
  const Jukebox probe(jukebox_config);
  layout.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(probe, layout) * 9 / 10;
  Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();

  ValidatingScheduler scheduler(
      CreateScheduler(AlgorithmSpec::Parse("dynamic-max-bandwidth").value(),
                      &jukebox, &catalog),
      &jukebox, &catalog);

  SimulationConfig sim;
  sim.duration_seconds = 400'000;
  sim.warmup_seconds = 0;
  sim.workload.model = QueuingModel::kOpen;
  sim.workload.mean_interarrival_seconds = 240;
  sim.workload.seed = 17;
  sim.faults.permanent_media_error_prob = 5e-3;
  sim.faults.transient_read_error_prob = 0.01;
  sim.repair.enable_repair = true;
  sim.repair.scrub_interval_seconds = 40'000;
  sim.repair.repair_bandwidth_mb_per_s = 20;

  Simulator simulator(&jukebox, &catalog, &scheduler, sim);
  const SimulationResult result = simulator.Run();
  ASSERT_TRUE(result.repair_enabled);
  EXPECT_GT(result.repair.scrub_blocks_read, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  EXPECT_GT(scheduler.requests_served(), 0);
  // Whatever is still inside the scheduler at cutoff is the queued client
  // work plus any unfinished background source reads.
  EXPECT_GE(scheduler.outstanding(), result.outstanding_at_end);
}

TEST(CrossFault, MultiDriveScrubRepairSurvivesEveryFaultClass) {
  // Scrub and repair share two drives with client reads while every fault
  // class fires: repair mounts and scrub passes skip tapes the other drive
  // holds, and the scheduler invariants and conservation must hold.
  LayoutSpec layout;
  layout.num_replicas = 1;
  layout.start_position = 1.0;
  Jukebox jukebox(WithDrives(2));
  Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();
  ValidatingScheduler scheduler(
      CreateScheduler(AlgorithmSpec::Parse("dynamic-max-bandwidth").value(),
                      &jukebox, &catalog),
      &jukebox, &catalog);
  SimulationConfig sim = CrossFaultSim(1);
  // Light open load: scrub only uses idle drives.
  sim.workload.model = QueuingModel::kOpen;
  sim.workload.mean_interarrival_seconds = 400;
  sim.repair.enable_repair = true;
  sim.repair.scrub_interval_seconds = 20'000;
  sim.repair.repair_bandwidth_mb_per_s = 20;

  Simulator simulator(&jukebox, &catalog, &scheduler, sim);
  const SimulationResult result = simulator.Run();
  ASSERT_TRUE(result.repair_enabled);
  EXPECT_GT(result.repair.scrub_blocks_read, 0);
  EXPECT_GT(result.faults.drive_failures, 0);
  EXPECT_GT(result.faults.permanent_media_errors, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  EXPECT_GT(scheduler.requests_served(), 0);
  EXPECT_GE(scheduler.outstanding(), result.outstanding_at_end);
}

}  // namespace
}  // namespace tapejuke
