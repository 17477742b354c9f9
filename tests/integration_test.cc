// End-to-end qualitative reproduction tests: the paper's headline claims
// must hold in shortened simulation runs. Each test states the claim and
// the paper section it comes from.

#include <gtest/gtest.h>

#include <ostream>
#include <tuple>

#include "core/experiment.h"

namespace tapejuke {

// Prints policy parameters by name, so the parameterised test names read
// "(max-bandwidth, 60, 101)".
void PrintTo(TapePolicy policy, std::ostream* os) {
  *os << TapePolicyName(policy);
}

namespace {

ExperimentConfig Base(int64_t queue = 60, uint64_t seed = 101) {
  ExperimentConfig config;
  config.layout.hot_fraction = 0.10;           // PH-10
  config.sim.workload.hot_request_fraction = 0.40;  // RH-40
  config.sim.workload.queue_length = queue;
  config.sim.workload.seed = seed;
  config.sim.duration_seconds = 600'000;
  config.sim.warmup_seconds = 60'000;
  return config;
}

SimulationResult RunAlgo(ExperimentConfig config, const std::string& algo) {
  config.algorithm = AlgorithmSpec::Parse(algo).value();
  return ExperimentRunner::Run(config).value().sim;
}

// §4.2 / Figure 4: FIFO is catastrophically worse than any batching
// scheduler (every retrieval pays a switch and a long locate).
TEST(PaperClaims, FifoIsFarWorse) {
  const SimulationResult fifo = RunAlgo(Base(), "fifo");
  const SimulationResult dyn = RunAlgo(Base(), "dynamic-max-bandwidth");
  EXPECT_GT(dyn.requests_per_minute, 2.5 * fifo.requests_per_minute);
  EXPECT_LT(dyn.mean_delay_seconds, 0.5 * fifo.mean_delay_seconds);
}

// §4.2: dynamic variants dominate their static counterparts at heavy load.
TEST(PaperClaims, DynamicBeatsStaticAtHeavyLoad) {
  const ExperimentConfig heavy = Base(/*queue=*/120);
  const SimulationResult stat = RunAlgo(heavy, "static-max-bandwidth");
  const SimulationResult dyn = RunAlgo(heavy, "dynamic-max-bandwidth");
  EXPECT_GT(dyn.requests_per_minute, stat.requests_per_minute);
}

// §4.2: at light load, static max-bandwidth is comparable to dynamic (few
// arrivals land during a sweep).
TEST(PaperClaims, StaticComparableAtLightLoad) {
  const ExperimentConfig light = Base(/*queue=*/10);
  const SimulationResult stat = RunAlgo(light, "static-max-bandwidth");
  const SimulationResult dyn = RunAlgo(light, "dynamic-max-bandwidth");
  EXPECT_NEAR(stat.requests_per_minute / dyn.requests_per_minute, 1.0, 0.08);
}

// §4.6: with no replicas the envelope algorithm degenerates into the
// dynamic algorithm with the same tape policy — results are bit-identical,
// not merely similar. Checked across every envelope policy, closed queues
// from light to deep, the open model, and several seeds. Queue 0 stands
// for the open model (70 s mean interarrival, loaded but below
// saturation).
using DegeneracyParam = std::tuple<TapePolicy, int64_t, uint64_t>;

class EnvelopeDegeneracy : public ::testing::TestWithParam<DegeneracyParam> {
};

TEST_P(EnvelopeDegeneracy, EnvelopeDegeneratesToDynamicWithoutReplication) {
  const auto [policy, queue, seed] = GetParam();
  ExperimentConfig config = Base(queue, seed);
  ASSERT_EQ(config.layout.num_replicas, 0);
  if (queue == 0) {
    config.sim.workload.model = QueuingModel::kOpen;
    config.sim.workload.mean_interarrival_seconds = 70;
  }
  config.algorithm = AlgorithmSpec{AlgorithmKind::kDynamic, policy, {}};
  const SimulationResult dyn = ExperimentRunner::Run(config).value().sim;
  config.algorithm = AlgorithmSpec{AlgorithmKind::kEnvelope, policy, {}};
  const SimulationResult env = ExperimentRunner::Run(config).value().sim;
  EXPECT_GT(dyn.completed_requests, 0);
  EXPECT_EQ(dyn.completed_requests, env.completed_requests);
  EXPECT_DOUBLE_EQ(dyn.throughput_mb_per_s, env.throughput_mb_per_s);
  EXPECT_DOUBLE_EQ(dyn.mean_delay_seconds, env.mean_delay_seconds);
  EXPECT_EQ(dyn.counters.tape_switches, env.counters.tape_switches);
}

INSTANTIATE_TEST_SUITE_P(
    PaperClaims, EnvelopeDegeneracy,
    ::testing::Combine(::testing::Values(TapePolicy::kOldestMaxRequests,
                                         TapePolicy::kMaxRequests,
                                         TapePolicy::kMaxBandwidth),
                       ::testing::Values<int64_t>(10, 60, 500, 0),
                       ::testing::Values<uint64_t>(101, 7, 4242)));

// §4.4 / Figure 6: replicating hot data at the tape ends improves both
// throughput and response time, and reduces tape switching.
TEST(PaperClaims, FullReplicationBeatsNoReplication) {
  ExperimentConfig none = Base();
  none.layout.num_replicas = 0;
  none.layout.start_position = 0.0;  // best placement without replication
  ExperimentConfig full = Base();
  full.layout.num_replicas = 9;
  full.layout.start_position = 1.0;  // best placement with replication
  const SimulationResult r0 = RunAlgo(none, "dynamic-max-bandwidth");
  const SimulationResult r9 = RunAlgo(full, "dynamic-max-bandwidth");
  EXPECT_GT(r9.requests_per_minute, 1.05 * r0.requests_per_minute);
  EXPECT_LT(r9.mean_delay_seconds, 0.95 * r0.mean_delay_seconds);
  EXPECT_LT(r9.tape_switches_per_hour, r0.tape_switches_per_hour);
}

// §4.3 / Figure 5: without replication hot data belongs at the beginning
// of the tape.
TEST(PaperClaims, NoReplicationHotAtBeginning) {
  ExperimentConfig begin = Base();
  begin.layout.start_position = 0.0;
  ExperimentConfig end = Base();
  end.layout.start_position = 1.0;
  const SimulationResult r_begin = RunAlgo(begin, "dynamic-max-bandwidth");
  const SimulationResult r_end = RunAlgo(end, "dynamic-max-bandwidth");
  EXPECT_GT(r_begin.requests_per_minute, r_end.requests_per_minute);
}

// §4.5 / Figure 7: with full replication the preference flips — hot data
// and replicas belong at the end of the tape.
TEST(PaperClaims, FullReplicationHotAtEnd) {
  ExperimentConfig begin = Base();
  begin.layout.num_replicas = 9;
  begin.layout.start_position = 0.0;
  ExperimentConfig end = Base();
  end.layout.num_replicas = 9;
  end.layout.start_position = 1.0;
  const SimulationResult r_begin = RunAlgo(begin, "envelope-max-bandwidth");
  const SimulationResult r_end = RunAlgo(end, "envelope-max-bandwidth");
  EXPECT_GT(r_end.requests_per_minute, r_begin.requests_per_minute);
}

// §4.6 / Figure 8: with replication, the envelope algorithm beats the
// plain dynamic algorithm.
TEST(PaperClaims, EnvelopeBeatsDynamicWithReplication) {
  ExperimentConfig config = Base();
  config.layout.num_replicas = 9;
  config.layout.start_position = 1.0;
  const SimulationResult dyn = RunAlgo(config, "dynamic-max-bandwidth");
  const SimulationResult env = RunAlgo(config, "envelope-max-bandwidth");
  EXPECT_GT(env.requests_per_minute, dyn.requests_per_minute);
  EXPECT_LT(env.mean_delay_seconds, dyn.mean_delay_seconds);
}

// §4.7 / Figure 9: more skew (RH) is uniformly better.
TEST(PaperClaims, MoreSkewIsBetter) {
  double last_throughput = 0;
  for (const double rh : {0.2, 0.5, 0.8}) {
    ExperimentConfig config = Base();
    config.layout.num_replicas = 9;
    config.layout.start_position = 1.0;
    config.sim.workload.hot_request_fraction = rh;
    const SimulationResult r = RunAlgo(config, "envelope-max-bandwidth");
    EXPECT_GT(r.requests_per_minute, last_throughput) << "RH=" << rh;
    last_throughput = r.requests_per_minute;
  }
}

// §4.2 (open-queuing caveat): at high open-queuing load the algorithm
// choice affects delay but hardly the throughput (arrivals cap it).
TEST(PaperClaims, OpenQueuingHighLoadThroughputIsArrivalBound) {
  ExperimentConfig config = Base();
  config.sim.workload.model = QueuingModel::kOpen;
  // Interarrival slightly above the service capability: saturation.
  config.sim.workload.mean_interarrival_seconds = 55.0;
  const SimulationResult stat = RunAlgo(config, "static-max-bandwidth");
  const SimulationResult dyn = RunAlgo(config, "dynamic-max-bandwidth");
  EXPECT_NEAR(stat.requests_per_minute / dyn.requests_per_minute, 1.0, 0.1);
  EXPECT_LT(dyn.mean_delay_seconds, stat.mean_delay_seconds);
}

// §4.1 / Figure 3: halving the transfer size from 16 MB to 8 MB costs
// close to a factor of two in byte throughput.
TEST(PaperClaims, SmallTransferSizeCollapsesThroughput) {
  ExperimentConfig big = Base();
  big.jukebox.block_size_mb = 16;
  ExperimentConfig small = Base();
  small.jukebox.block_size_mb = 8;
  const SimulationResult r16 = RunAlgo(big, "dynamic-max-bandwidth");
  const SimulationResult r8 = RunAlgo(small, "dynamic-max-bandwidth");
  const double ratio = r16.throughput_mb_per_s / r8.throughput_mb_per_s;
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 2.5);
}

// §4.3 / Figure 5: the vertical layout beats horizontal placements except
// under very intense workloads.
TEST(PaperClaims, VerticalLayoutGoodAtModerateLoad) {
  ExperimentConfig horizontal = Base();
  horizontal.layout.layout = HotLayout::kHorizontal;
  horizontal.layout.start_position = 0.0;
  ExperimentConfig vertical = Base();
  vertical.layout.layout = HotLayout::kVertical;
  const SimulationResult h = RunAlgo(horizontal, "dynamic-max-bandwidth");
  const SimulationResult v = RunAlgo(vertical, "dynamic-max-bandwidth");
  EXPECT_GT(v.requests_per_minute, 0.95 * h.requests_per_minute);
}

}  // namespace
}  // namespace tapejuke
