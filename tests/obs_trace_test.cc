// Trace recorder end-to-end: schema shape of the emitted Chrome trace,
// span pairing, sampling, determinism, and the invariant that tracing
// never changes results output.

#include "obs/recorder.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/results_io.h"
#include "layout/placement.h"
#include "sched/greedy_scheduler.h"
#include "sim/simulator.h"
#include "test_util.h"
#include "util/json.h"

namespace tapejuke {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int64_t CountOccurrences(const std::string& text, const std::string& sub) {
  int64_t count = 0;
  for (size_t pos = text.find(sub); pos != std::string::npos;
       pos = text.find(sub, pos + sub.size())) {
    ++count;
  }
  return count;
}

std::string ResultJson(const SimulationResult& result) {
  std::ostringstream out;
  JsonWriter w(&out);
  WriteJson(&w, result);
  return out.str();
}

struct Rig {
  Rig(const JukeboxConfig& jb_config, const LayoutSpec& layout)
      : jukebox(jb_config),
        catalog(LayoutBuilder::Build(&jukebox, layout).value()) {}

  Jukebox jukebox;
  Catalog catalog;
};

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;
  return config;
}

SimulationConfig ShortSim() {
  SimulationConfig config;
  config.duration_seconds = 100'000;
  config.warmup_seconds = 10'000;
  config.workload.model = QueuingModel::kClosed;
  config.workload.queue_length = 30;
  config.workload.seed = 29;
  return config;
}

SimulationResult RunTraced(const obs::TraceConfig& obs_config) {
  Rig rig(PaperJukebox(), LayoutSpec{});
  GreedyScheduler scheduler(&rig.jukebox, &rig.catalog,
                            TapePolicy::kMaxBandwidth, /*dynamic=*/true);
  SimulationConfig config = ShortSim();
  config.obs = obs_config;
  Simulator sim(&rig.jukebox, &rig.catalog, &scheduler, config);
  return sim.Run();
}

TEST(ObsTrace, WritesBalancedSchemaValidTrace) {
  const std::string dir = ::testing::TempDir();
  obs::TraceConfig obs_config;
  obs_config.trace_out = dir + "obs_trace_schema.json";
  obs_config.decision_log = dir + "obs_trace_schema.jsonl";
  const SimulationResult result = RunTraced(obs_config);
  EXPECT_GT(result.completed_requests, 0);

  const std::string trace = ReadFile(obs_config.trace_out);
  EXPECT_EQ(trace.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(trace.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Topology metadata: the process plus the drive/scheduler/request
  // threads.
  EXPECT_NE(trace.find("\"name\":\"jukebox\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"drive 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"scheduler\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"requests\""), std::string::npos);
  // Drive-state slices and scheduler decisions are present.
  EXPECT_GT(CountOccurrences(trace, "\"ph\":\"X\""), 0);
  EXPECT_NE(trace.find("\"name\":\"reading\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"locating\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"reschedule\""), std::string::npos);
  // Every opened request span is closed.
  const int64_t begins = CountOccurrences(trace, "\"ph\":\"b\"");
  const int64_t ends = CountOccurrences(trace, "\"ph\":\"e\"");
  EXPECT_GT(begins, 0);
  EXPECT_EQ(begins, ends);
  // Scheduled-into-sweep instants ride on the request spans.
  EXPECT_GT(CountOccurrences(trace, "\"name\":\"scheduled\""), 0);

  const std::string decisions = ReadFile(obs_config.decision_log);
  EXPECT_GT(CountOccurrences(decisions, "\"chosen\":"), 0);
  EXPECT_GT(CountOccurrences(decisions, "\"candidates\":["), 0);
  EXPECT_NE(decisions.find("\"scheduler\":\"dynamic max-bandwidth\""),
            std::string::npos);
}

TEST(ObsTrace, ByteIdenticalAcrossRuns) {
  const std::string dir = ::testing::TempDir();
  obs::TraceConfig first;
  first.trace_out = dir + "obs_trace_det_a.json";
  first.decision_log = dir + "obs_trace_det_a.jsonl";
  obs::TraceConfig second;
  second.trace_out = dir + "obs_trace_det_b.json";
  second.decision_log = dir + "obs_trace_det_b.jsonl";
  RunTraced(first);
  RunTraced(second);
  EXPECT_EQ(ReadFile(first.trace_out), ReadFile(second.trace_out));
  EXPECT_EQ(ReadFile(first.decision_log), ReadFile(second.decision_log));
}

TEST(ObsTrace, TracingNeverChangesResults) {
  const SimulationResult untraced = RunTraced(obs::TraceConfig{});
  obs::TraceConfig obs_config;
  obs_config.trace_out = ::testing::TempDir() + "obs_trace_inert.json";
  obs_config.decision_log = ::testing::TempDir() + "obs_trace_inert.jsonl";
  const SimulationResult traced = RunTraced(obs_config);
  // The whole results document, byte for byte — tracing only observes.
  EXPECT_EQ(ResultJson(untraced), ResultJson(traced));
}

TEST(ObsTrace, SamplingThinsRequestSpansOnly) {
  const std::string dir = ::testing::TempDir();
  obs::TraceConfig dense;
  dense.trace_out = dir + "obs_trace_dense.json";
  obs::TraceConfig sparse;
  sparse.trace_out = dir + "obs_trace_sparse.json";
  sparse.sample = 8;
  const SimulationResult dense_result = RunTraced(dense);
  const SimulationResult sparse_result = RunTraced(sparse);
  EXPECT_EQ(ResultJson(dense_result), ResultJson(sparse_result));
  const std::string dense_trace = ReadFile(dense.trace_out);
  const std::string sparse_trace = ReadFile(sparse.trace_out);
  const int64_t dense_begins = CountOccurrences(dense_trace, "\"ph\":\"b\"");
  const int64_t sparse_begins =
      CountOccurrences(sparse_trace, "\"ph\":\"b\"");
  EXPECT_GT(dense_begins, sparse_begins);
  EXPECT_GT(sparse_begins, 0);
  EXPECT_EQ(sparse_begins,
            CountOccurrences(sparse_trace, "\"ph\":\"e\""));
  // Drive-state slices are never sampled away.
  EXPECT_EQ(CountOccurrences(dense_trace, "\"ph\":\"X\""),
            CountOccurrences(sparse_trace, "\"ph\":\"X\""));
}

TEST(ObsTrace, MultiDriveTraceCoversEveryDrive) {
  const std::string dir = ::testing::TempDir();
  obs::TraceConfig obs_config;
  obs_config.trace_out = dir + "obs_trace_multi.json";
  obs_config.decision_log = dir + "obs_trace_multi.jsonl";
  DriveRig rig(3, LayoutSpec{}, "dynamic-max-bandwidth", PaperJukebox());
  SimulationConfig config = ShortSim();
  config.obs = obs_config;
  const SimulationResult result = rig.Run(config);
  EXPECT_GT(result.completed_requests, 0);
  const std::string trace = ReadFile(obs_config.trace_out);
  EXPECT_NE(trace.find("\"name\":\"drive 0\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"drive 1\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"drive 2\""), std::string::npos);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"b\""),
            CountOccurrences(trace, "\"ph\":\"e\""));
  // Robot contention is visible as robot-state slices.
  EXPECT_NE(trace.find("\"name\":\"robot\""), std::string::npos);
  // Every drive's reschedules are logged under its own index.
  const std::string decisions = ReadFile(obs_config.decision_log);
  EXPECT_GT(CountOccurrences(decisions, "\"drive\":0"), 0);
  EXPECT_GT(CountOccurrences(decisions, "\"drive\":1"), 0);
  EXPECT_GT(CountOccurrences(decisions, "\"drive\":2"), 0);
}

// --- recorder unit behaviour ------------------------------------------

TEST(TraceRecorder, ClosesOpenSpansAtFinalize) {
  obs::TraceConfig config;
  config.trace_out = ::testing::TempDir() + "obs_recorder_unit.json";
  obs::TraceRecorder recorder(config);
  recorder.SetTopology("jukebox", 1);
  recorder.RequestArrived(1, /*block=*/7, /*background=*/false, 10.0);
  recorder.RequestArrived(2, /*block=*/8, /*background=*/false, 11.0);
  recorder.RequestScheduled(1, /*tape=*/3, 12.0);
  recorder.RequestDone(1, obs::RequestOutcome::kCompleted, 20.0);
  // Request 2 stays open; Finalize must close it.
  ASSERT_TRUE(recorder.Finalize(25.0).ok());
  const std::string trace = ReadFile(config.trace_out);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"b\""), 2);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"e\""), 2);
  EXPECT_NE(trace.find("\"outcome\":\"completed\""), std::string::npos);
  EXPECT_NE(trace.find("\"outcome\":\"open-at-end\""), std::string::npos);
}

TEST(TraceRecorder, IgnoresEventsForUnknownRequests) {
  obs::TraceConfig config;
  config.trace_out = ::testing::TempDir() + "obs_recorder_unknown.json";
  obs::TraceRecorder recorder(config);
  recorder.SetTopology("jukebox", 1);
  // No arrival recorded: these must be silently dropped, not crash.
  recorder.RequestScheduled(99, /*tape=*/1, 5.0);
  recorder.RequestRetry(99, 1, 6.0);
  recorder.RequestDone(99, obs::RequestOutcome::kCompleted, 7.0);
  ASSERT_TRUE(recorder.Finalize(10.0).ok());
  const std::string trace = ReadFile(config.trace_out);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"b\""), 0);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"e\""), 0);
  EXPECT_EQ(CountOccurrences(trace, "\"ph\":\"n\""), 0);
}

TEST(TraceRecorder, DisabledConfigRecordsNothing) {
  obs::TraceRecorder recorder(obs::TraceConfig{});
  EXPECT_FALSE(recorder.enabled());
  recorder.RequestArrived(1, 0, false, 1.0);
  recorder.DriveStateSlice(0, obs::DriveActivity::kReading, 0.0, 1.0);
  recorder.Instant("noop", 2.0);
  EXPECT_EQ(recorder.num_events(), 0);
  EXPECT_TRUE(recorder.Finalize(3.0).ok());
}

TEST(TraceRecorder, FinalizeTwiceIsFatal) {
  // Regression: Finalize closes the open spans and writes the files, so a
  // second call would double-close spans and truncate the output. It must
  // trip a check instead of silently rewriting.
  obs::TraceRecorder recorder(obs::TraceConfig{});
  EXPECT_TRUE(recorder.Finalize(3.0).ok());
  EXPECT_DEATH((void)recorder.Finalize(4.0), "called twice");
}

}  // namespace
}  // namespace tapejuke
