// Tests for the JSON results writer: escaping, number formatting, writer
// structure, and the experiment-type serializers.

#include "core/results_io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

namespace tapejuke {
namespace {

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(JsonEscape("fifo"), "fifo");
  EXPECT_EQ(JsonEscape("max-bandwidth envelope"),
            "max-bandwidth envelope");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(JsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(JsonDouble, ShortestRoundTrip) {
  EXPECT_EQ(JsonDouble(1.5), "1.5");
  EXPECT_EQ(JsonDouble(0.1), "0.1");
  EXPECT_DOUBLE_EQ(std::stod(JsonDouble(1.0 / 3.0)), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(std::stod(JsonDouble(12345.6789)), 12345.6789);
}

TEST(JsonDouble, NonFiniteBecomesNull) {
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonDouble(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonDouble(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, EmitsNestedStructure) {
  std::ostringstream os;
  JsonWriter w(&os);
  w.BeginObject();
  w.Field("name", "fig04");
  w.Field("threads", 8);
  w.Key("points");
  w.BeginArray();
  w.Value(1.5);
  w.Value(true);
  w.Null();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"name\": \"fig04\",\n"
            "  \"threads\": 8,\n"
            "  \"points\": [\n"
            "    1.5,\n"
            "    true,\n"
            "    null\n"
            "  ]\n"
            "}");
}

TEST(JsonWriter, EmptyContainersStayCompact) {
  std::ostringstream os;
  JsonWriter w(&os);
  w.BeginObject();
  w.Key("empty_array");
  w.BeginArray();
  w.EndArray();
  w.Key("empty_object");
  w.BeginObject();
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"empty_array\": [],\n"
            "  \"empty_object\": {}\n"
            "}");
}

TEST(WriteJson, ExperimentConfigCarriesEveryKnob) {
  ExperimentConfig config;
  config.algorithm = AlgorithmSpec::Parse("envelope-max-bandwidth").value();
  config.layout.num_replicas = 9;
  config.sim.workload.seed = 12345;
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, config);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"algorithm\": \"max-bandwidth envelope\""),
            std::string::npos);
  EXPECT_NE(json.find("\"num_replicas\": 9"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 12345"), std::string::npos);
  for (const char* key :
       {"jukebox", "layout", "sim", "workload", "hot_fraction",
        "queue_length", "duration_seconds", "rewind_before_eject"}) {
    std::string quoted = "\"";
    quoted += key;
    quoted += "\"";
    EXPECT_NE(json.find(quoted), std::string::npos) << key;
  }
}

TEST(WriteJson, SimulationResultCarriesEveryMetric) {
  SimulationResult result;
  result.completed_requests = 77;
  result.requests_per_minute = 2.5;
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, result);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"completed_requests\": 77"), std::string::npos);
  EXPECT_NE(json.find("\"requests_per_minute\": 2.5"), std::string::npos);
  for (const char* key :
       {"throughput_mb_per_s", "mean_delay_seconds", "mean_delay_minutes",
        "p95_delay_seconds", "p99_delay_seconds", "tape_switches_per_hour",
        "counters"}) {
    std::string quoted = "\"";
    quoted += key;
    quoted += "\"";
    EXPECT_NE(json.find(quoted), std::string::npos) << key;
  }
  // The time-in-state block appears only when accounting was collected.
  EXPECT_EQ(json.find("\"time_in_state\""), std::string::npos);
  EXPECT_EQ(json.find("\"drive_utilization\""), std::string::npos);
  result.drive_utilization = 0.5;
  result.time_in_state.resize(2);
  result.time_in_state[0][obs::DriveActivity::kReading] = 3.25;
  std::ostringstream os2;
  JsonWriter w2(&os2);
  WriteJson(&w2, result);
  const std::string with_states = os2.str();
  EXPECT_NE(with_states.find("\"drive_utilization\": 0.5"),
            std::string::npos);
  EXPECT_NE(with_states.find("\"time_in_state\""), std::string::npos);
  EXPECT_NE(with_states.find("\"reading\": 3.25"), std::string::npos);
  EXPECT_NE(with_states.find("\"down\": 0"), std::string::npos);
}

TEST(WriteJson, TableRoundTripsColumnsAndRows) {
  Table table({"name", "value"});
  table.AddRow({std::string("alpha"), 1.5});
  table.AddRow({std::string("beta"), int64_t{7}});
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, table);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"columns\""), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("1.5"), std::string::npos);
  EXPECT_NE(json.find("7"), std::string::npos);
}

TEST(WriteTextFile, CreatesParentDirectories) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "tapejuke_results_io_test";
  std::filesystem::remove_all(dir);
  const std::filesystem::path path = dir / "nested" / "out.json";
  const Status status = WriteTextFile(path.string(), "{\"ok\": true}");
  ASSERT_TRUE(status.ok()) << status;
  std::ifstream in(path);
  std::stringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), "{\"ok\": true}");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tapejuke
