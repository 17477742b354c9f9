// Tests for jukebox configuration variants: the eject-anywhere ablation
// knob and the fast-drive timing parameters, through to experiment level.

#include <gtest/gtest.h>

#include "core/experiment.h"
#include "tape/jukebox.h"

namespace tapejuke {
namespace {

TEST(EjectAnywhere, SwitchSkipsRewindTime) {
  JukeboxConfig config;
  config.num_tapes = 4;
  config.rewind_before_eject = false;
  Jukebox jukebox(config);
  jukebox.SwitchTo(0);
  jukebox.ReadBlockAt(1600);  // head deep in the tape
  // Switch pays only eject + robot + load; no rewind time.
  EXPECT_DOUBLE_EQ(jukebox.SwitchTo(1), 19 + 20 + 42);
  EXPECT_DOUBLE_EQ(jukebox.counters().rewind_seconds, 0.0);
  EXPECT_EQ(jukebox.head(), 0);  // fresh tape still starts at 0
}

TEST(EjectAnywhere, RewindingDriveChargesRewind) {
  JukeboxConfig config;
  config.num_tapes = 4;
  config.rewind_before_eject = true;
  Jukebox jukebox(config);
  jukebox.SwitchTo(0);
  jukebox.ReadBlockAt(1600);
  EXPECT_GT(jukebox.SwitchTo(1), 81.0);
  EXPECT_GT(jukebox.counters().rewind_seconds, 0.0);
}

TEST(EjectAnywhere, ImprovesSimulatedThroughput) {
  auto run = [](bool rewind) {
    ExperimentConfig config;
    config.jukebox.rewind_before_eject = rewind;
    config.sim.duration_seconds = 400'000;
    config.sim.warmup_seconds = 40'000;
    config.sim.workload.queue_length = 60;
    config.sim.workload.seed = 9;
    return ExperimentRunner::Run(config).value().sim;
  };
  EXPECT_GT(run(false).requests_per_minute,
            1.05 * run(true).requests_per_minute);
}

TEST(FastDrive, ImprovesSimulatedThroughputMassively) {
  auto run = [](const TimingParams& timing) {
    ExperimentConfig config;
    config.jukebox.timing = timing;
    config.sim.duration_seconds = 400'000;
    config.sim.warmup_seconds = 40'000;
    config.sim.workload.queue_length = 60;
    config.sim.workload.seed = 9;
    return ExperimentRunner::Run(config).value().sim;
  };
  const SimulationResult slow = run(TimingParams::Exabyte8505XL());
  const SimulationResult fast = run(TimingParams::FastDrive());
  EXPECT_GT(fast.requests_per_minute, 3.0 * slow.requests_per_minute);
}

TEST(FastDrive, QualitativeOrderingsSurvive) {
  // §2.1: changing the drive speed "does not materially alter our results
  // about choice of scheduling algorithm, the amount of replication, and
  // the data placement". Spot-check: replication still helps, and the
  // envelope still beats dynamic, on the fast drive.
  auto run = [](const std::string& algo, int nr) {
    ExperimentConfig config;
    config.jukebox.timing = TimingParams::FastDrive();
    config.layout.num_replicas = nr;
    config.layout.start_position = nr == 0 ? 0.0 : 1.0;
    config.algorithm = AlgorithmSpec::Parse(algo).value();
    config.sim.duration_seconds = 400'000;
    config.sim.warmup_seconds = 40'000;
    config.sim.workload.queue_length = 60;
    config.sim.workload.seed = 10;
    return ExperimentRunner::Run(config).value().sim;
  };
  const SimulationResult plain = run("dynamic-max-bandwidth", 0);
  const SimulationResult replicated = run("dynamic-max-bandwidth", 9);
  const SimulationResult envelope = run("envelope-max-bandwidth", 9);
  EXPECT_GT(replicated.requests_per_minute, plain.requests_per_minute);
  EXPECT_GE(envelope.requests_per_minute,
            0.99 * replicated.requests_per_minute);
}

TEST(OrganPipe, RunsEndToEndAndCentersHotData) {
  ExperimentConfig config;
  config.layout.start_position = 0.5;  // organ-pipe: hot data centered
  config.sim.duration_seconds = 200'000;
  config.sim.warmup_seconds = 20'000;
  config.sim.workload.queue_length = 40;
  config.sim.workload.seed = 11;
  const StatusOr<ExperimentResult> result = ExperimentRunner::Run(config);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_GT(result->sim.completed_requests, 100);
}

}  // namespace
}  // namespace tapejuke
