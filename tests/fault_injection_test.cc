// End-to-end fault-injection tests: dead-replica filtering in every
// scheduler, failover and degraded-mode behavior in the single- and
// multi-drive simulators, request conservation under randomized faults,
// thread-count invariance of fault counters, and the bit-identical
// fault-free guarantee.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/farm.h"
#include "core/results_io.h"
#include "core/sweep_runner.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace tapejuke {
namespace {

std::string ToJson(const SimulationResult& result) {
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, result);
  return os.str();
}

std::string ToJson(const SimulationConfig& config) {
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, config);
  return os.str();
}

SimulationConfig ClosedSim(uint64_t seed, double duration = 150'000) {
  SimulationConfig sim;
  sim.duration_seconds = duration;
  sim.warmup_seconds = 0;
  sim.workload.model = QueuingModel::kClosed;
  sim.workload.queue_length = 40;
  sim.workload.seed = seed;
  return sim;
}

// --- Scheduler dead-replica filtering ------------------------------------

class DeadReplicaFiltering : public ::testing::TestWithParam<std::string> {};

TEST_P(DeadReplicaFiltering, MasksAreInvisibleToTheScheduler) {
  // Block 0 has copies on tapes 0 and 1; the tape-0 copy is masked dead.
  // Whatever the algorithm, the schedule must read the live copy.
  TinyRig rig(/*num_tapes=*/3);
  rig.Place(/*block=*/0, /*tape=*/0, /*slot=*/1);
  rig.Place(/*block=*/0, /*tape=*/1, /*slot=*/3);
  rig.Place(/*block=*/1, /*tape=*/0, /*slot=*/4);
  Catalog catalog = rig.BuildCatalog(/*num_hot=*/1);
  ASSERT_TRUE(catalog.MarkReplicaDead(0, 0));

  const AlgorithmSpec spec = AlgorithmSpec::Parse(GetParam()).value();
  const std::unique_ptr<Scheduler> scheduler =
      CreateScheduler(spec, &rig.jukebox(), &catalog);
  scheduler->OnArrival(Request{0, 0, 0.0}, 0);
  const TapeId tape = scheduler->MajorReschedule();
  EXPECT_EQ(tape, 1) << "the only live copy of block 0 is on tape 1";
  const std::optional<ServiceEntry> entry = scheduler->PopNext();
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->block, 0);
  EXPECT_EQ(entry->position, catalog.ReplicaOn(0, 1)->position);
}

TEST_P(DeadReplicaFiltering, EvictUnservablePendingPartitionsCorrectly) {
  TinyRig rig(/*num_tapes=*/2);
  rig.Place(0, 0, 1);
  rig.Place(1, 0, 3);
  rig.Place(1, 1, 2);
  Catalog catalog = rig.BuildCatalog(/*num_hot=*/0);

  const AlgorithmSpec spec = AlgorithmSpec::Parse(GetParam()).value();
  const std::unique_ptr<Scheduler> scheduler =
      CreateScheduler(spec, &rig.jukebox(), &catalog);
  scheduler->OnArrival(Request{0, 0, 0.0}, 0);
  scheduler->OnArrival(Request{1, 1, 1.0}, 0);
  // Tape 0 dies: block 0 (sole copy there) is lost, block 1 survives on
  // tape 1.
  ASSERT_GT(catalog.MarkTapeDead(0), 0);
  const std::vector<Request> evicted = scheduler->EvictUnservablePending();
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].block, 0);
  // The survivor is still schedulable, on the surviving tape.
  EXPECT_TRUE(scheduler->HasWork());
  EXPECT_EQ(scheduler->MajorReschedule(), 1);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, DeadReplicaFiltering,
                         ::testing::Values("fifo", "static-max-bandwidth",
                                           "dynamic-max-bandwidth",
                                           "envelope-max-bandwidth"));

// --- Single-drive simulator ------------------------------------------------

ExperimentConfig FaultyExperiment(int num_replicas, uint64_t seed) {
  ExperimentConfig config;
  config.layout.num_replicas = num_replicas;
  config.layout.start_position = num_replicas == 0 ? 0.0 : 1.0;
  config.sim = ClosedSim(seed);
  config.sim.faults.permanent_media_error_prob = 1e-3;
  config.sim.faults.whole_tape_fraction = 0.2;
  config.sim.faults.transient_read_error_prob = 0.01;
  config.sim.faults.robot_fault_prob = 0.01;
  config.sim.faults.drive_mtbf_seconds = 50'000;
  config.sim.faults.drive_mttr_seconds = 1'000;
  config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  return config;
}

TEST(FaultInjection, FailoverOnPermanentMediaError) {
  const ExperimentConfig config = FaultyExperiment(/*num_replicas=*/2, 5);
  const ExperimentResult result = ExperimentRunner::Run(config).value();
  const SimulationResult& sim = result.sim;
  ASSERT_TRUE(sim.fault_injection);
  EXPECT_GT(sim.faults.permanent_media_errors, 0);
  EXPECT_GT(sim.faults.replicas_masked, 0);
  EXPECT_GT(sim.faults.transient_read_errors, 0);
  EXPECT_EQ(sim.faults.read_retries, sim.faults.transient_read_errors -
                                         sim.faults.reads_escalated);
  EXPECT_GT(sim.faults.drive_failures, 0);
  EXPECT_GT(sim.faults.drive_repair_seconds, 0);
  EXPECT_EQ(sim.completed_total + sim.failed_requests +
                sim.outstanding_at_end,
            sim.issued_requests);
  EXPECT_GT(sim.completed_total, 0);
}

TEST(FaultInjection, AllReplicasDeadFailsTheRequest) {
  // NR-0 with every permanent error destroying the whole tape: blocks die
  // for good and requests to them must complete with an error rather than
  // hang the closed loop.
  ExperimentConfig config = FaultyExperiment(/*num_replicas=*/0, 11);
  config.sim.faults.whole_tape_fraction = 1.0;
  config.sim.faults.permanent_media_error_prob = 5e-3;
  const SimulationResult sim = ExperimentRunner::Run(config).value().sim;
  ASSERT_TRUE(sim.fault_injection);
  EXPECT_GT(sim.faults.dead_tapes, 0);
  EXPECT_GT(sim.failed_requests, 0);
  EXPECT_LT(sim.availability, 1.0);
  EXPECT_EQ(sim.completed_total + sim.failed_requests +
                sim.outstanding_at_end,
            sim.issued_requests);
}

TEST(FaultInjection, ReplicationImprovesCompletionsUnderFaults) {
  // The PR's headline acceptance: at a nonzero permanent-media-error rate
  // a replicated layout completes strictly more requests than NR-0 —
  // replication is an availability mechanism, not just a seek optimizer.
  for (const uint64_t seed : {1u, 2u, 3u}) {
    const SimulationResult nr0 =
        ExperimentRunner::Run(FaultyExperiment(0, seed)).value().sim;
    const SimulationResult nr2 =
        ExperimentRunner::Run(FaultyExperiment(2, seed)).value().sim;
    EXPECT_GT(nr2.completed_total, nr0.completed_total) << "seed " << seed;
    EXPECT_GE(nr2.availability, nr0.availability) << "seed " << seed;
  }
}

TEST(FaultInjection, ConservationFuzzAcrossSeedsAndModels) {
  // 20 seeds x {closed, open}: issued == completed + failed + outstanding
  // in every run (MetricsCollector::Finalize also TJ_CHECKs this).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ExperimentConfig config =
        FaultyExperiment(/*num_replicas=*/1, seed * 977);
    config.sim.duration_seconds = 60'000;
    if (seed % 2 == 0) {
      config.sim.workload.model = QueuingModel::kOpen;
      config.sim.workload.mean_interarrival_seconds = 60;
    }
    const SimulationResult sim = ExperimentRunner::Run(config).value().sim;
    ASSERT_TRUE(sim.fault_injection);
    EXPECT_EQ(sim.completed_total + sim.failed_requests +
                  sim.outstanding_at_end,
              sim.issued_requests)
        << "seed " << seed;
    EXPECT_GT(sim.issued_requests, 0) << "seed " << seed;
  }
}

TEST(FaultInjection, DisabledFaultsAreBitIdenticalToFaultFree) {
  // The mutable-catalog constructor with all rates zero must reproduce the
  // fault-free run byte for byte, and serialize no fault fields at all.
  JukeboxConfig jukebox_config;
  Jukebox jukebox_a(jukebox_config);
  Jukebox jukebox_b(jukebox_config);
  LayoutSpec layout;
  layout.num_replicas = 2;
  layout.start_position = 1.0;
  const Catalog catalog_a =
      LayoutBuilder::Build(&jukebox_a, layout).value();
  Catalog catalog_b = LayoutBuilder::Build(&jukebox_b, layout).value();
  const AlgorithmSpec spec =
      AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  const std::unique_ptr<Scheduler> sched_a =
      CreateScheduler(spec, &jukebox_a, &catalog_a);
  const std::unique_ptr<Scheduler> sched_b =
      CreateScheduler(spec, &jukebox_b, &catalog_b);
  const SimulationConfig sim = ClosedSim(7);

  Simulator fault_free(&jukebox_a, &catalog_a, sched_a.get(), sim);
  Simulator disabled(&jukebox_b, &catalog_b, sched_b.get(), sim);
  const SimulationResult result_a = fault_free.Run();
  const SimulationResult result_b = disabled.Run();
  EXPECT_FALSE(result_b.fault_injection);
  EXPECT_EQ(ToJson(result_a), ToJson(result_b));
  EXPECT_EQ(ToJson(sim).find("faults"), std::string::npos)
      << "disabled fault config must not appear in serialized output";
}

TEST(FaultInjection, CountersAreThreadCountInvariant) {
  // The same faulty grid through the sweep runner at 1 and 8 threads must
  // produce byte-identical JSON — fault draws come from a per-run stream
  // seeded by the derived point seed, never from execution order.
  std::vector<ExperimentConfig> grid;
  for (int nr : {0, 2}) {
    ExperimentConfig config = FaultyExperiment(nr, 1);
    config.sim.duration_seconds = 60'000;
    grid.push_back(config);
  }
  SweepOptions serial;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.threads = 8;
  const auto a = SweepRunner(serial).Run(grid);
  const auto b = SweepRunner(parallel).Run(grid);
  ASSERT_TRUE(a.ok()) << a.status();
  ASSERT_TRUE(b.ok()) << b.status();
  for (size_t i = 0; i < grid.size(); ++i) {
    EXPECT_TRUE((*a)[i].sim.faults == (*b)[i].sim.faults) << "point " << i;
    EXPECT_EQ(ToJson((*a)[i].sim), ToJson((*b)[i].sim)) << "point " << i;
  }
}

TEST(FaultInjectionDeathTest, ConstCatalogCtorRejectsEnabledFaults) {
  JukeboxConfig jukebox_config;
  Jukebox jukebox(jukebox_config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  const std::unique_ptr<Scheduler> scheduler = CreateScheduler(
      AlgorithmSpec::Parse("fifo").value(), &jukebox, &catalog);
  SimulationConfig sim = ClosedSim(1);
  sim.faults.permanent_media_error_prob = 0.01;
  EXPECT_DEATH(Simulator(&jukebox, &catalog, scheduler.get(), sim),
               "mutable-catalog");
}

// --- Multi-drive simulator -------------------------------------------------

TEST(MultiDriveFaults, FailoverAndConservation) {
  LayoutSpec layout;
  layout.num_replicas = 2;
  layout.start_position = 1.0;
  DriveRig rig(3, layout);
  SimulationConfig sim = ClosedSim(13);
  sim.faults.permanent_media_error_prob = 1e-3;
  sim.faults.whole_tape_fraction = 0.2;
  sim.faults.transient_read_error_prob = 0.01;
  sim.faults.robot_fault_prob = 0.01;
  sim.faults.drive_mtbf_seconds = 20'000;
  sim.faults.drive_mttr_seconds = 2'000;

  const SimulationResult result = rig.Run(sim);
  ASSERT_TRUE(result.fault_injection);
  EXPECT_GT(result.completed_total, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  // Three drives with a 20k-second MTBF over a 150k-second run: failures
  // and repairs must both have happened, and requests displaced by media
  // errors must have failed over to surviving replicas.
  EXPECT_GT(result.faults.drive_failures, 0);
  EXPECT_GT(result.faults.drive_repair_seconds, 0);
  EXPECT_GT(result.faults.failovers, 0);
  EXPECT_GT(result.faults.transient_read_errors, 0);
}

TEST(MultiDriveFaults, DisabledFaultsAreBitIdenticalToFaultFree) {
  LayoutSpec layout;
  layout.num_replicas = 1;
  const SimulationConfig sim = ClosedSim(21);

  // The const-catalog Simulator cannot inject faults at all.
  DriveRig rig_a(2, layout);
  Simulator fault_free(&rig_a.jukebox,
                       static_cast<const Catalog*>(&rig_a.catalog),
                       rig_a.scheduler.get(), sim);
  const SimulationResult result_a = fault_free.Run();

  const SimulationResult result_b = DriveRig(2, layout).Run(sim);

  EXPECT_FALSE(result_b.fault_injection);
  EXPECT_EQ(ToJson(result_a), ToJson(result_b));
}

TEST(MultiDriveFaultsDeathTest, ConstCatalogCtorRejectsEnabledFaults) {
  DriveRig rig(2);
  SimulationConfig sim = ClosedSim(1);
  sim.faults.robot_fault_prob = 0.01;
  EXPECT_DEATH(Simulator(&rig.jukebox,
                         static_cast<const Catalog*>(&rig.catalog),
                         rig.scheduler.get(), sim),
               "mutable-catalog");
}

// --- Farm gating -----------------------------------------------------------

TEST(FaultGating, FarmConfigAcceptsFaultsRepairAndEveryAlgorithm) {
  FarmConfig farm;
  farm.per_jukebox.sim.faults.permanent_media_error_prob = 0.01;
  EXPECT_TRUE(farm.Validate().ok());

  // Multi-drive boxes run every algorithm, and scrub/repair.
  FarmConfig envelope = farm;
  envelope.drives_per_jukebox = 2;
  envelope.per_jukebox.algorithm =
      AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  EXPECT_TRUE(envelope.Validate().ok());

  FarmConfig repair = farm;
  repair.drives_per_jukebox = 2;
  repair.per_jukebox.sim.repair.enable_repair = true;
  repair.per_jukebox.sim.repair.scrub_interval_seconds = 1000;
  EXPECT_TRUE(repair.Validate().ok());
}

}  // namespace
}  // namespace tapejuke
