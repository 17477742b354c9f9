#include "bench_common.h"

#include <cstdlib>
#include <sstream>

namespace tapejuke {
namespace bench {

namespace {

/// Reports a refused flag value and sets exit code 2; returns false for
/// Parse to return.
template <typename Why>
bool Refuse(const Why& why, int* exit_code) {
  std::cerr << why << "\n";
  *exit_code = 2;
  return false;
}

/// A grid point's config was refused: report it the way a bad flag is
/// reported, and exit 2.
void ExitIfRefused(const Status& status) {
  if (status.ok()) return;
  std::cerr << status << "\n";
  std::exit(2);
}

}  // namespace

bool BenchOptions::Parse(int argc, char** argv, const std::string& summary,
                         int* exit_code, FlagSet* extra) {
  const StatusOr<double> default_seconds = DefaultSimSeconds();
  if (!default_seconds.ok()) return Refuse(default_seconds.status(), exit_code);
  sim_seconds = default_seconds.value();
  FlagSet local(summary);
  FlagSet& flags = extra != nullptr ? *extra : local;
  flags.AddDouble("sim-seconds", &sim_seconds,
                  "simulated seconds per data point (paper: 10,000,000)");
  flags.AddInt64("seed", &seed, "base seed for per-point workload seeds");
  flags.AddBool("csv", &csv, "also print CSV blocks");
  flags.AddString("queuing", &queuing,
                  "arrival model: closed (constant queue) or open (Poisson)");
  flags.AddInt64("threads", &threads,
                 "worker threads for the sweep (0 = hardware concurrency; "
                 "1 = serial; results are identical at any value)");
  flags.AddString("results-dir", &results_dir,
                  "directory for the <bench>.json results document "
                  "(empty disables JSON output)");
  flags.AddBool("quick", &quick,
                "reduced load grid (3 points) for smoke runs");
  BindFlags(&flags, faults.Fields());
  BindFlags(&flags, repair.Fields());
  flags.AddString("trace-out", &trace_out,
                  "Chrome trace_event JSON output path for the traced grid "
                  "point; load in Perfetto (empty disables tracing)");
  flags.AddString("decision-log", &decision_log,
                  "scheduler decision JSONL output path for the traced "
                  "grid point (empty disables the log)");
  flags.AddInt64("trace-sample", &trace_sample,
                 "trace the lifecycle of every Nth request (1 = all; "
                 "drive states and decisions are never sampled)");
  flags.AddInt64("trace-point", &trace_point,
                 "index of the grid point to trace, in the first sweep "
                 "large enough to contain it");
  flags.AddString("timeline-out", &timeline_out,
                  "time-series telemetry JSONL output path for the traced "
                  "grid point (empty disables the timeline)");
  flags.AddDouble("timeline-interval", &timeline_interval,
                  "simulated seconds between timeline samples (required "
                  "with --timeline-out)");
  const Status status = flags.Parse(argc, argv);
  if (status.code() == StatusCode::kNotFound) {  // --help
    *exit_code = 0;
    return false;
  }
  if (!status.ok()) return Refuse(status, exit_code);
  if (NameIndex(kQueuingModelNames, queuing) < 0) {
    return Refuse("--queuing must be 'closed' or 'open'", exit_code);
  }
  // The base seed is unsigned: a negative one would run as 2^64 - |seed|.
  if (seed < 0) return Refuse("--seed must be >= 0", exit_code);
  if (threads < 0) return Refuse("--threads must be >= 0", exit_code);
  if (trace_sample < 1) return Refuse("--trace-sample must be >= 1", exit_code);
  if (trace_point < 0) return Refuse("--trace-point must be >= 0", exit_code);
  if (timeline_interval < 0) {
    return Refuse("--timeline-interval must be >= 0", exit_code);
  }
  if (!timeline_out.empty() && timeline_interval <= 0) {
    return Refuse("--timeline-out requires a positive --timeline-interval",
                  exit_code);
  }
  *exit_code = 0;
  return true;
}

std::vector<int64_t> QueueLengths(const BenchOptions& options) {
  if (options.quick) return {20, 60, 140};
  return PaperQueueLengths();
}

std::vector<double> Interarrivals(const BenchOptions& options) {
  if (options.quick) return {240, 90, 50};
  return PaperInterarrivals();
}

ExperimentConfig PaperBaseConfig(const BenchOptions& options) {
  ExperimentConfig config;
  config.jukebox.num_tapes = 10;
  config.jukebox.block_size_mb = 16;
  config.layout.hot_fraction = 0.10;
  config.layout.num_replicas = 0;
  config.layout.start_position = 0.0;
  config.sim.duration_seconds = options.sim_seconds;
  config.sim.warmup_seconds = options.sim_seconds * 0.1;
  config.sim.workload.model = options.Model();
  config.sim.workload.hot_request_fraction = 0.40;
  config.sim.workload.seed = static_cast<uint64_t>(options.seed);
  config.sim.faults = options.faults;
  config.sim.repair = options.repair;
  config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  return config;
}

std::string ParamCaption(const ExperimentConfig& config) {
  std::ostringstream out;
  out << "PH-" << static_cast<int>(config.layout.hot_fraction * 100)
      << " RH-"
      << static_cast<int>(config.sim.workload.hot_request_fraction * 100)
      << " NR-" << config.layout.num_replicas << " SP-"
      << config.layout.start_position << " block-"
      << config.jukebox.block_size_mb << "MB "
      << kHotLayoutNames[static_cast<int>(config.layout.layout)] << " "
      << config.jukebox.num_tapes << " tapes";
  return out.str();
}

BenchContext::BenchContext(std::string bench_name,
                           const BenchOptions& options)
    : bench_name_(std::move(bench_name)), options_(options) {}

BenchContext::~BenchContext() { Finish(); }

void BenchContext::AddLoadSweep(std::vector<GridPoint>* grid,
                                const std::string& series,
                                ExperimentConfig config) const {
  if (options_.Model() == QueuingModel::kOpen) {
    config.sim.workload.model = QueuingModel::kOpen;
    for (const double gap : Interarrivals(options_)) {
      config.sim.workload.mean_interarrival_seconds = gap;
      grid->push_back(GridPoint{series, gap, config});
    }
    return;
  }
  config.sim.workload.model = QueuingModel::kClosed;
  for (const int64_t queue : QueueLengths(options_)) {
    config.sim.workload.queue_length = queue;
    grid->push_back(
        GridPoint{series, static_cast<double>(queue), config});
  }
}

std::vector<ExperimentResult> BenchContext::RunGrid(
    const std::vector<GridPoint>& grid) {
  const SweepRunner runner(options_.Sweep());
  std::vector<ExperimentConfig> points;
  points.reserve(grid.size());
  for (const GridPoint& point : grid) points.push_back(point.config);
  const auto target = static_cast<size_t>(options_.trace_point);
  if (Claim(options_.Trace().enabled(), &trace_attached_, points.size())) {
    points[target].sim.obs = options_.Trace();
  }
  if (Claim(options_.Timeline().enabled(), &timeline_attached_,
            points.size())) {
    points[target].sim.timeline = options_.Timeline();
  }
  StatusOr<std::vector<ExperimentResult>> results = runner.Run(points);
  ExitIfRefused(results.status());
  std::vector<RecordedPoint> recorded;
  recorded.reserve(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    recorded.push_back(RecordedPoint{grid[i].series, grid[i].load,
                                     runner.EffectiveConfig(points[i], i),
                                     results.value()[i]});
  }
  sweeps_.push_back(std::move(recorded));
  return std::move(results).value();
}

std::vector<FarmResult> BenchContext::RunFarmGrid(
    const std::vector<FarmGridPoint>& grid) {
  const SweepRunner runner(options_.Sweep());
  std::vector<FarmConfig> points;
  points.reserve(grid.size());
  for (const FarmGridPoint& point : grid) points.push_back(point.config);
  // A farm point runs many boxes, so it takes the timeline (which rolls
  // them up) but never the per-box trace.
  if (Claim(options_.Timeline().enabled(), &timeline_attached_,
            points.size())) {
    points[static_cast<size_t>(options_.trace_point)]
        .per_jukebox.sim.timeline = options_.Timeline();
  }
  StatusOr<std::vector<FarmResult>> results = runner.RunFarms(points);
  ExitIfRefused(results.status());
  std::vector<RecordedFarmPoint> recorded;
  recorded.reserve(grid.size());
  for (size_t i = 0; i < grid.size(); ++i) {
    recorded.push_back(
        RecordedFarmPoint{grid[i].series, grid[i].load,
                          runner.EffectiveFarmConfig(points[i], i),
                          results.value()[i]});
  }
  farm_sweeps_.push_back(std::move(recorded));
  return std::move(results).value();
}

void BenchContext::RunParallel(size_t n,
                               const std::function<Status(size_t)>& fn) {
  parallel_trace_ = Claim(options_.Trace().enabled(), &trace_attached_, n);
  parallel_timeline_ =
      Claim(options_.Timeline().enabled(), &timeline_attached_, n);
  const SweepRunner runner(options_.Sweep());
  const Status status = runner.RunIndexed(n, fn);
  parallel_trace_ = false;
  parallel_timeline_ = false;
  ExitIfRefused(status);
}

void BenchContext::AttachTrace(size_t index, SimulationConfig* sim) const {
  if (index != static_cast<size_t>(options_.trace_point)) return;
  if (parallel_trace_) sim->obs = options_.Trace();
  if (parallel_timeline_) sim->timeline = options_.Timeline();
}

bool BenchContext::Claim(bool requested, bool* attached, size_t n) const {
  if (!requested || *attached ||
      static_cast<size_t>(options_.trace_point) >= n) {
    return false;
  }
  *attached = true;
  return true;
}

void BenchContext::RecordResult(const std::string& series, double load,
                                const SimulationResult& result) {
  extra_results_.push_back(RecordedExtra{series, load, result});
}

void BenchContext::Emit(const std::string& title, Table* table) {
  std::cout << "\n== " << title << " ==\n";
  table->PrintText(std::cout);
  if (options_.csv) {
    std::cout << "\n-- csv --\n";
    table->PrintCsv(std::cout);
  }
  tables_.push_back(RecordedTable{title, *table});
}

int BenchContext::Finish() {
  if (finished_) return exit_code_;
  finished_ = true;
  WriteResults();
  const auto unattached = [this](const char* what) {
    std::cerr << "error: " << bench_name_ << " wrote no " << what
              << ": no grid has a point --trace-point="
              << options_.trace_point
              << ", or the bench runs no simulation that takes it\n";
    exit_code_ = 2;
  };
  if (options_.Trace().enabled() && !trace_attached_) {
    unattached("--trace-out/--decision-log");
  }
  if (options_.Timeline().enabled() && !timeline_attached_) {
    unattached("--timeline-out");
  }
  return exit_code_;
}

void BenchContext::WriteResults() {
  if (options_.results_dir.empty()) return;
  std::ostringstream out;
  JsonWriter w(&out);
  w.BeginObject();
  w.Field("schema_version", int64_t{1});
  w.Field("bench", bench_name_);
  w.Key("options");
  w.BeginObject();
  w.Field("sim_seconds", options_.sim_seconds);
  w.Field("seed", options_.seed);
  w.Field("queuing", options_.queuing);
  w.Field("threads", options_.threads);
  w.Field("quick", options_.quick);
  w.EndObject();
  if (!sweeps_.empty()) {
    w.Key("sweeps");
    w.BeginArray();
    for (const std::vector<RecordedPoint>& sweep : sweeps_) {
      w.BeginArray();
      for (const RecordedPoint& point : sweep) {
        w.BeginObject();
        w.Field("series", point.series);
        w.Field("load", point.load);
        w.Key("config");
        WriteJson(&w, point.config);
        w.Key("result");
        WriteJson(&w, point.result);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndArray();
  }
  if (!farm_sweeps_.empty()) {
    w.Key("farm_sweeps");
    w.BeginArray();
    for (const std::vector<RecordedFarmPoint>& sweep : farm_sweeps_) {
      w.BeginArray();
      for (const RecordedFarmPoint& point : sweep) {
        w.BeginObject();
        w.Field("series", point.series);
        w.Field("load", point.load);
        w.Key("config");
        WriteJson(&w, point.config);
        w.Key("result");
        WriteJson(&w, point.result);
        w.EndObject();
      }
      w.EndArray();
    }
    w.EndArray();
  }
  if (!extra_results_.empty()) {
    w.Key("extra_results");
    w.BeginArray();
    for (const RecordedExtra& extra : extra_results_) {
      w.BeginObject();
      w.Field("series", extra.series);
      w.Field("load", extra.load);
      w.Key("result");
      WriteJson(&w, extra.result);
      w.EndObject();
    }
    w.EndArray();
  }
  if (!tables_.empty()) {
    w.Key("tables");
    w.BeginArray();
    for (const RecordedTable& table : tables_) {
      w.BeginObject();
      w.Field("title", table.title);
      w.Key("table");
      WriteJson(&w, table.table);
      w.EndObject();
    }
    w.EndArray();
  }
  w.EndObject();
  out << "\n";
  const std::string path = options_.results_dir + "/" + bench_name_ + ".json";
  const Status status = WriteTextFile(path, out.str());
  if (!status.ok()) {
    std::cerr << "warning: " << status << "\n";
    return;
  }
  std::cout << "\nwrote " << path << "\n";
}

}  // namespace bench
}  // namespace tapejuke
