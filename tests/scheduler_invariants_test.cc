// Cross-algorithm property suite: every scheduling algorithm, run under
// randomized workloads with the ValidatingScheduler armed, satisfies the
// scheduler contract — legal single-sweep execution order, reads matching
// real replicas on the chosen tape, and exact request conservation.

#include "sched/validating_scheduler.h"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "core/experiment.h"

namespace tapejuke {
namespace {

using InvariantCase =
    std::tuple<std::string /*algorithm*/, int /*num_replicas*/,
               QueuingModel>;

class SchedulerInvariants : public ::testing::TestWithParam<InvariantCase> {
};

TEST_P(SchedulerInvariants, HoldUnderRandomWorkload) {
  const auto& [algorithm, num_replicas, model] = GetParam();

  JukeboxConfig jukebox_config;
  jukebox_config.num_tapes = 10;
  jukebox_config.block_size_mb = 16;
  Jukebox jukebox(jukebox_config);

  LayoutSpec layout;
  layout.num_replicas = num_replicas;
  layout.start_position = num_replicas == 0 ? 0.0 : 1.0;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();

  AlgorithmSpec spec = AlgorithmSpec::Parse(algorithm).value();
  // Arms the envelope oracle too (other schedulers ignore the option).
  spec.options.validate_envelope = true;
  ValidatingScheduler scheduler(CreateScheduler(spec, &jukebox, &catalog),
                                &jukebox, &catalog);

  SimulationConfig sim_config;
  sim_config.duration_seconds = 150'000;
  sim_config.warmup_seconds = 0;
  sim_config.workload.model = model;
  sim_config.workload.queue_length = 50;
  sim_config.workload.mean_interarrival_seconds = 70;
  sim_config.workload.seed =
      static_cast<uint64_t>(num_replicas) * 131 + algorithm.size();
  Simulator sim(&jukebox, &catalog, &scheduler, sim_config);
  const SimulationResult result = sim.Run();

  // The ValidatingScheduler aborts on any contract violation; reaching
  // here means order/placement/uniqueness held. Check conservation too.
  EXPECT_GT(result.completed_requests, 50) << "simulation made no progress";
  EXPECT_EQ(scheduler.arrivals_seen(),
            scheduler.requests_served() + scheduler.outstanding());
  // The simulator's completion count matches the scheduler's served count
  // within the post-run residue (requests served == metric completions
  // because warmup is zero).
  EXPECT_EQ(scheduler.requests_served(), result.completed_requests);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithms, SchedulerInvariants,
    ::testing::Combine(
        ::testing::Values("fifo", "static-round-robin",
                          "static-max-requests", "static-max-bandwidth",
                          "static-oldest-max-requests",
                          "static-oldest-max-bandwidth",
                          "dynamic-round-robin", "dynamic-max-requests",
                          "dynamic-max-bandwidth",
                          "dynamic-oldest-max-requests",
                          "dynamic-oldest-max-bandwidth",
                          "envelope-max-requests", "envelope-max-bandwidth",
                          "envelope-oldest-max-requests"),
        ::testing::Values(0, 3, 9),
        ::testing::Values(QueuingModel::kClosed, QueuingModel::kOpen)));

TEST(ValidatingScheduler, NamePrefixesInner) {
  JukeboxConfig config;
  config.num_tapes = 2;
  Jukebox jukebox(config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  ValidatingScheduler scheduler(
      CreateScheduler(AlgorithmSpec::Parse("fifo").value(), &jukebox,
                      &catalog),
      &jukebox, &catalog);
  EXPECT_EQ(scheduler.name(), "validated fifo");
}

TEST(ValidatingSchedulerDeathTest, DoubleEnqueueAborts) {
  JukeboxConfig config;
  config.num_tapes = 2;
  Jukebox jukebox(config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  ValidatingScheduler scheduler(
      CreateScheduler(AlgorithmSpec::Parse("fifo").value(), &jukebox,
                      &catalog),
      &jukebox, &catalog);
  scheduler.OnArrival(Request{1, 0, 0.0}, 0);
  EXPECT_DEATH(scheduler.OnArrival(Request{1, 5, 1.0}, 0),
               "enqueued twice");
}

TEST(ValidatingSchedulerDeathTest, DoubleBackgroundEnqueueAborts) {
  JukeboxConfig config;
  config.num_tapes = 2;
  Jukebox jukebox(config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  ValidatingScheduler scheduler(
      CreateScheduler(AlgorithmSpec::Parse("fifo").value(), &jukebox,
                      &catalog),
      &jukebox, &catalog);
  Request background{kBackgroundIdBase, 0, 0.0, RequestClass::kBackground};
  scheduler.EnqueueBackground(background);
  EXPECT_DEATH(scheduler.EnqueueBackground(background), "enqueued twice");
}

TEST(ValidatingScheduler, SettledIdMayBeEnqueuedAgain) {
  // Settling a request (here by expiry) takes its id out of the
  // outstanding set, so the id is free for a later enqueue.
  JukeboxConfig config;
  config.num_tapes = 2;
  Jukebox jukebox(config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  ValidatingScheduler scheduler(
      CreateScheduler(AlgorithmSpec::Parse("fifo").value(), &jukebox,
                      &catalog),
      &jukebox, &catalog);
  Request request{1, 0, 0.0};
  request.deadline = 5.0;
  scheduler.OnArrival(request, 0);
  const std::vector<Request> expired = scheduler.EvictExpired(10.0);
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired.front().id, 1);
  request.arrival_time = 10.0;
  request.deadline = 0;
  scheduler.OnArrival(request, 0);
  EXPECT_TRUE(scheduler.HasWork());
  EXPECT_TRUE(scheduler.EvictExpired(20.0).empty());
}

}  // namespace
}  // namespace tapejuke
