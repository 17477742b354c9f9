// Deadline edge cases: expiry landing exactly on the warm-up boundary
// (metrics window clipping), expiry of a request still staged in the
// scheduler's arrival batch, and expiry racing a failover re-enqueue —
// the latter two under the ValidatingScheduler with validate_envelope, so
// any contract violation aborts the test — and the metamorphic relation
// "a deadline that never fires changes nothing".

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>

#include "core/experiment.h"
#include "core/results_io.h"
#include "sched/validating_scheduler.h"
#include "sim/metrics.h"
#include "sim/simulator.h"

namespace tapejuke {
namespace {

TEST(DeadlineWarmupBoundary, ExpiryAtBoundaryStaysOutOfMeasuredWindow) {
  MetricsCollector metrics(/*warmup_seconds=*/100.0, /*block_size_mb=*/16);
  metrics.ConfigureClasses(2);

  // Expires exactly at the warm-up boundary: whole-run conservation counts
  // it, the measured per-class window does not (the window is (warmup,
  // end], matching completions).
  metrics.OnArrival(50.0);
  metrics.OnExpired(/*arrival=*/50.0, /*now=*/100.0, /*tenant=*/0);
  // Expires just past the boundary: lands in the per-class window.
  metrics.OnArrival(60.0);
  metrics.OnExpired(60.0, 100.5, 0);

  const SimulationResult result =
      metrics.Finalize(/*end_time=*/200.0, JukeboxCounters{}, nullptr);
  EXPECT_EQ(result.expired_requests, 2);
  ASSERT_EQ(result.tenant_classes.size(), 2u);
  EXPECT_EQ(result.tenant_classes[0].expired, 1);
  EXPECT_EQ(result.issued_requests, 2);
  EXPECT_EQ(result.outstanding_at_end, 0);
}

SimulationConfig DeadlineSim(uint64_t seed) {
  SimulationConfig sim;
  sim.duration_seconds = 200'000;
  sim.warmup_seconds = 0;
  sim.workload.model = QueuingModel::kOpen;
  // Past saturation for one drive, so the queue backs up and short
  // deadlines fire while requests are still queued.
  sim.workload.mean_interarrival_seconds = 40;
  sim.workload.seed = seed;
  TenantClassConfig strict;
  strict.weight = 0.5;
  strict.deadline_seconds = 2000;
  TenantClassConfig loose;
  loose.weight = 0.5;
  sim.workload.tenant_classes = {strict, loose};
  return sim;
}

TEST(DeadlineEdge, StagedArrivalBatchRequestsExpire) {
  JukeboxConfig jukebox_config;
  jukebox_config.num_tapes = 10;
  jukebox_config.block_size_mb = 16;
  Jukebox jukebox(jukebox_config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();

  // Envelope scheduler with a large arrival batch: at a 40 s mean gap a
  // 2000 s deadline can pass while a request is still sitting in the
  // staged buffer, exercising the AbsorbStagedToPending path inside
  // EvictExpired. validate_envelope re-checks the envelope invariant on
  // every mutation.
  AlgorithmSpec spec = AlgorithmSpec::Parse("envelope-max-requests").value();
  spec.options.arrival_batch = 32;
  spec.options.validate_envelope = true;
  ValidatingScheduler scheduler(CreateScheduler(spec, &jukebox, &catalog),
                                &jukebox, &catalog);

  Simulator simulator(&jukebox, &catalog, &scheduler, DeadlineSim(23));
  const SimulationResult result = simulator.Run();

  ASSERT_TRUE(result.overload_enabled);
  EXPECT_GT(result.expired_requests, 0);
  EXPECT_GT(result.completed_requests, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.expired_requests + result.shed_requests +
                result.outstanding_at_end,
            result.issued_requests);
  // The strict class expired; the deadline-free class never does.
  ASSERT_EQ(result.tenant_classes.size(), 2u);
  EXPECT_GT(result.tenant_classes[0].expired, 0);
  EXPECT_EQ(result.tenant_classes[1].expired, 0);
  // Everything the scheduler saw was served, expired, or is still queued.
  EXPECT_EQ(scheduler.arrivals_seen(),
            scheduler.requests_served() + result.expired_requests +
                scheduler.outstanding());
}

TEST(DeadlineEdge, ExpiryRacesFailoverReenqueue) {
  JukeboxConfig jukebox_config;
  jukebox_config.num_tapes = 10;
  jukebox_config.block_size_mb = 16;
  Jukebox jukebox(jukebox_config);
  LayoutSpec layout;
  layout.num_replicas = 2;
  layout.start_position = 1.0;
  Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();

  AlgorithmSpec spec = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  ValidatingScheduler scheduler(CreateScheduler(spec, &jukebox, &catalog),
                                &jukebox, &catalog);

  // Heavy fault mix on top of the deadline workload: failovers re-enqueue
  // requests whose deadline may already have passed, and whole-tape loss
  // can drain sweeps holding past-deadline requests. The simulator must
  // settle those as expired, never serve them, and keep conservation.
  SimulationConfig sim = DeadlineSim(29);
  sim.faults.permanent_media_error_prob = 2e-3;
  sim.faults.whole_tape_fraction = 0.3;
  sim.faults.transient_read_error_prob = 0.02;
  sim.faults.retry_backoff_base_seconds = 2.0;
  sim.faults.retry_backoff_max_seconds = 60.0;

  Simulator simulator(&jukebox, &catalog, &scheduler, sim);
  const SimulationResult result = simulator.Run();

  ASSERT_TRUE(result.fault_injection);
  ASSERT_TRUE(result.overload_enabled);
  EXPECT_GT(result.expired_requests, 0);
  EXPECT_GT(result.faults.failovers, 0);
  EXPECT_GT(result.completed_requests, 0);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.expired_requests + result.shed_requests +
                result.outstanding_at_end,
            result.issued_requests);
}

TEST(DeadlineEdge, ClosedModelExpiriesReissueAtOnce) {
  // In the closed model every settled request, expired or completed, is
  // replaced at once, so the whole population stays outstanding.
  JukeboxConfig jukebox_config;
  jukebox_config.num_tapes = 10;
  jukebox_config.block_size_mb = 16;
  Jukebox jukebox(jukebox_config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  const std::unique_ptr<Scheduler> scheduler = CreateScheduler(
      AlgorithmSpec::Parse("dynamic-max-bandwidth").value(), &jukebox,
      &catalog);

  SimulationConfig sim;
  sim.duration_seconds = 200'000;
  sim.warmup_seconds = 20'000;
  sim.workload.model = QueuingModel::kClosed;
  sim.workload.queue_length = 40;
  sim.workload.seed = 19;
  TenantClassConfig strict;
  strict.weight = 0.5;
  strict.deadline_seconds = 1000;
  TenantClassConfig loose;
  loose.weight = 0.5;
  sim.workload.tenant_classes = {strict, loose};
  const SimulationResult result =
      Simulator(&jukebox, &catalog, scheduler.get(), sim).Run();
  EXPECT_GT(result.expired_requests, 100);
  EXPECT_GT(result.completed_requests, 100);
  EXPECT_EQ(result.outstanding_at_end, 40);
  EXPECT_NEAR(result.mean_outstanding, 40.0, 1e-6);
  EXPECT_EQ(result.completed_total + result.failed_requests +
                result.expired_requests + result.shed_requests +
                result.outstanding_at_end,
            result.issued_requests);
}

/// One open-model run with a three-class tenant mix, every class carrying
/// `deadline_seconds` (0 = none), serialized to JSON. The load keeps mean
/// delays under 1000 s, yet sweeps run often enough that arrivals sit
/// staged in a batch while later requests' expiry events come due (at a
/// 1000 s mean gap they almost never coincide, and the test goes blind).
std::string StaleExpiryRun(int32_t drives, int32_t arrival_batch,
                           double deadline_seconds) {
  JukeboxConfig jukebox_config;
  jukebox_config.num_tapes = 10;
  jukebox_config.block_size_mb = 16;
  jukebox_config.num_drives = drives;
  Jukebox jukebox(jukebox_config);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, LayoutSpec{}).value();
  AlgorithmSpec spec = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  spec.options.arrival_batch = arrival_batch;
  const std::unique_ptr<Scheduler> scheduler =
      CreateScheduler(spec, &jukebox, &catalog);

  SimulationConfig sim;
  sim.duration_seconds = 2'000'000;
  sim.warmup_seconds = 100'000;
  sim.workload.model = QueuingModel::kOpen;
  sim.workload.mean_interarrival_seconds = 250;
  sim.workload.seed = 31;
  for (const double weight : {0.2, 0.3, 0.5}) {
    TenantClassConfig cls;
    cls.weight = weight;
    cls.deadline_seconds = deadline_seconds;
    sim.workload.tenant_classes.push_back(cls);
  }
  const SimulationResult result =
      Simulator(&jukebox, &catalog, scheduler.get(), sim).Run();
  if (deadline_seconds > 0) {
    EXPECT_EQ(result.expired_requests, 0)
        << "the deadline must be long enough never to fire";
  }
  EXPECT_GT(result.completed_requests, 1000);
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, result);
  return os.str();
}

TEST(DeadlineMetamorphic, StaleExpiriesChangeNothing) {
  // Every request settles long before its deadline, so every expiry event
  // is stale: the live filter must drop each one without touching the
  // scheduler. A filter that failed to clear would call EvictExpired on a
  // stale event, which flushes arrival_batch-staged arrivals early and
  // changes the schedule.
  for (const int32_t drives : {1, 2}) {
    for (const int32_t batch : {0, 8}) {
      SCOPED_TRACE("drives=" + std::to_string(drives) +
                   " arrival_batch=" + std::to_string(batch));
      EXPECT_EQ(StaleExpiryRun(drives, batch, /*deadline_seconds=*/500'000),
                StaleExpiryRun(drives, batch, /*deadline_seconds=*/0));
    }
  }
}

}  // namespace
}  // namespace tapejuke
