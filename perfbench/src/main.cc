// perfbench: end-to-end benchmark of the tapejuke simulator.
//
//   perfbench --workload figure_suite|deep_queue|farm_degraded --seed N
//             --seconds S --trace 0|1 [--size full|small]
//             [--results-out PATH]
//
// --trace 0 measures the end-to-end metrics: it runs whole passes of the
// workload through the public API for about S seconds, sets the workload
// up and times a host-speed reference between passes, and reports robust
// summaries of the repeats scaled by host speed (see RunEndToEnd).
// --trace 1 runs
// the per-layer split: an untraced pass, the same points re-run one by
// one, and again with every scheduler wrapped in a TimingScheduler, plus
// a replay of the executed tape stream, a standalone workload generator
// and a timeline on/off pair. Both modes check the outputs (see
// README.md) and fail on divergence, never on timing. The last line of
// stdout is one JSON object with the metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/results_io.h"
#include "core/sweep_runner.h"
#include "core/tapejuke.h"
#include "sim/multi_drive.h"
#include "suite.h"
#include "timing_scheduler.h"
#include "util/check.h"
#include "util/json.h"

namespace perfbench {
namespace {

using namespace tapejuke;  // NOLINT: the benchmark drives the whole API
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Median(std::vector<double> values) {
  TJ_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// The mean of the fastest quarter of `values` (at least one). Interference
/// from other work on a shared host only ever adds time, so this is
/// steadier across runs than the median.
double FastestQuarterMean(std::vector<double> values) {
  TJ_CHECK(!values.empty());
  std::sort(values.begin(), values.end());
  const size_t fastest = std::max<size_t>(1, values.size() / 4);
  double sum = 0;
  for (size_t i = 0; i < fastest; ++i) sum += values[i];
  return sum / static_cast<double>(fastest);
}

/// The host-speed reference: a fixed discrete-event loop (binary-heap
/// event queue, hash map of live entities, bounded FIFO) with memory
/// behaviour like the simulator's. It uses no library code, so its time
/// moves only with the host. On a shared host the simulator's speed drifts
/// by tens of percent for minutes at a time, more than any statistic
/// inside one run can remove; sampled between passes, this loop slows
/// with it. Returns the loop's host seconds.
double TimeSpeedReference() {
  using Event = std::pair<double, uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  std::unordered_map<uint32_t, double> live;
  std::deque<uint32_t> fifo;
  uint64_t x = 7;
  const auto draw = [&x] {
    x = x * 6364136223846793005ull + 1;
    return x;
  };
  const Clock::time_point start = Clock::now();
  for (uint32_t id = 0; id < 20000; ++id) {
    events.push({static_cast<double>(draw() >> 40) * 1e-6, id});
    live[id] = 0;
  }
  for (int k = 0; k < 600000; ++k) {
    const auto [now, event_id] = events.top();
    events.pop();
    const uint64_t r = draw();
    uint32_t id = event_id;
    const auto it = live.find(id);
    if (it != live.end()) {
      it->second += now;
      if ((r >> 60) < 3) {  // retire the entity, start another
        live.erase(it);
        id += 20000 * (1 + (k & 7));
        live[id] = now;
      }
    }
    fifo.push_back(id);
    if (fifo.size() > 5000) fifo.pop_front();
    events.push({now + static_cast<double>(r >> 40) * 1e-6, id});
  }
  const double seconds = Since(start);
  TJ_CHECK(!live.empty() && fifo.size() == 5000);
  return seconds;
}

std::string ToJson(const std::function<void(JsonWriter*)>& write) {
  std::ostringstream out;
  JsonWriter w(&out);
  write(&w);
  return out.str();
}

// ---------------------------------------------------------------------------
// Per-point results and checks.
// ---------------------------------------------------------------------------

/// What the end-to-end metrics and the checks need from one point.
struct PointResult {
  std::string json;  ///< the point's results JSON
  bool ok = true;
  std::string error;
  double settled = 0;  ///< completed + failed + expired + shed, whole run
  bool has_conservation = false;
  int64_t issued = 0;
  int64_t completed = 0;
  double req_per_min = 0;
  double mean_delay_s = 0;
  bool has_p99 = false;
  double p99_delay_s = 0;
};

PointResult Failed(const std::string& error) {
  PointResult r;
  r.ok = false;
  r.error = error;
  return r;
}

/// Summarizes a SimulationResult and checks request conservation:
/// completed + failed + expired + shed + outstanding == issued.
PointResult Summarize(const SimulationResult& sim, std::string json) {
  PointResult r;
  r.json = std::move(json);
  r.has_conservation = true;
  r.issued = sim.issued_requests;
  r.completed = sim.completed_total;
  r.settled = static_cast<double>(sim.completed_total + sim.failed_requests +
                                  sim.expired_requests + sim.shed_requests);
  r.req_per_min = sim.requests_per_minute;
  r.mean_delay_s = sim.mean_delay_seconds;
  r.has_p99 = true;
  r.p99_delay_s = sim.p99_delay_seconds;
  const int64_t accounted = sim.completed_total + sim.failed_requests +
                            sim.expired_requests + sim.shed_requests +
                            sim.outstanding_at_end;
  if (accounted != sim.issued_requests) {
    r.ok = false;
    r.error = "conservation violated: accounted " + std::to_string(accounted) +
              " != issued " + std::to_string(sim.issued_requests);
  } else if (sim.completed_total <= 0) {
    r.ok = false;
    r.error = "no request completed";
  }
  return r;
}

PointResult SummarizeExperiment(const ExperimentResult& result) {
  return Summarize(result.sim,
                   ToJson([&](JsonWriter* w) { WriteJson(w, result); }));
}

PointResult SummarizeSim(const SimulationResult& result) {
  return Summarize(result,
                   ToJson([&](JsonWriter* w) { WriteJson(w, result); }));
}

PointResult SummarizeFarm(const FarmResult& result) {
  PointResult r = Summarize(
      result.aggregate, ToJson([&](JsonWriter* w) { WriteJson(w, result); }));
  int64_t per_box = 0;
  for (const int64_t c : result.completions_per_jukebox) per_box += c;
  if (r.ok && per_box != result.aggregate.completed_total) {
    r.ok = false;
    r.error = "per-box completions do not sum to the aggregate";
  }
  return r;
}

/// Lifecycle runs report per-epoch stats only (no conservation fields).
PointResult SummarizeLifecycle(const std::vector<EpochStats>& epochs,
                               int64_t replicas_written, int64_t fill_target) {
  PointResult r;
  r.json = ToJson([&](JsonWriter* w) {
    w->BeginObject();
    w->Key("epochs");
    w->BeginArray();
    for (const EpochStats& e : epochs) {
      w->BeginObject();
      w->Field("start_seconds", e.start_seconds);
      w->Field("end_seconds", e.end_seconds);
      w->Field("completed_requests", e.completed_requests);
      w->Field("requests_per_minute", e.requests_per_minute);
      w->Field("mean_delay_minutes", e.mean_delay_minutes);
      w->Field("fill_fraction", e.fill_fraction);
      w->EndObject();
    }
    w->EndArray();
    w->Field("replicas_written", replicas_written);
    w->Field("fill_target", fill_target);
    w->EndObject();
  });
  if (epochs.empty()) return Failed("lifecycle run produced no epochs");
  for (const EpochStats& e : epochs) {
    r.settled += static_cast<double>(e.completed_requests);
    r.req_per_min += e.requests_per_minute / static_cast<double>(epochs.size());
    r.mean_delay_s +=
        e.mean_delay_minutes * 60.0 / static_cast<double>(epochs.size());
  }
  if (r.settled <= 0) return Failed("lifecycle run completed no request");
  return r;
}

// ---------------------------------------------------------------------------
// Building and running one point.
// ---------------------------------------------------------------------------

/// Observes a traced point: a scheduler decorator and the tape stream it
/// records. Null in untraced runs.
struct Tracer {
  TapeStream stream;
  std::unique_ptr<TimingScheduler> scheduler;
  double layout_s = 0;
  double run_s = 0;  ///< the simulator's Run() wall
};

/// The loop that runs one point or farm box: a farm box is a single-drive
/// Simulator.
Engine PointEngine(const Point& point) {
  return point.engine == Engine::kFarm ? Engine::kSimulator : point.engine;
}

/// Everything a point builds before its first simulated event: jukebox,
/// layout, scheduler (wrapped when tracing) and the simulator of its
/// engine. BuildPoint is the benchmark's one construction path: the runs
/// run what it builds, and the setup_s measurement builds and discards it.
struct BuiltPoint {
  std::unique_ptr<Jukebox> jukebox;
  std::unique_ptr<Catalog> catalog;
  std::unique_ptr<Scheduler> owned_scheduler;
  Scheduler* scheduler = nullptr;  ///< null for kMultiDrive
  std::unique_ptr<Simulator> simulator;
  std::unique_ptr<MultiDriveSimulator> multi_drive;
  std::unique_ptr<WritebackSimulator> writeback;
  std::unique_ptr<LifecycleSimulator> lifecycle;
};

/// Builds `point` with `config` for `engine` (PointEngine(point)).
Status BuildPoint(Engine engine, const Point& point,
                  const ExperimentConfig& config, Tracer* tracer,
                  BuiltPoint* out) {
  const Status valid = config.Validate();
  if (!valid.ok()) return valid;
  out->jukebox = std::make_unique<Jukebox>(config.jukebox);
  const Clock::time_point layout_start = Clock::now();
  StatusOr<Catalog> catalog =
      LayoutBuilder::Build(out->jukebox.get(), config.layout);
  if (tracer != nullptr) tracer->layout_s += Since(layout_start);
  if (!catalog.ok()) return catalog.status();
  out->catalog = std::make_unique<Catalog>(std::move(catalog).value());
  Jukebox* jukebox = out->jukebox.get();
  Catalog* layout = out->catalog.get();
  if (engine == Engine::kMultiDrive) {
    // ext_multi_drive passes a const catalog (the fault-free overload).
    const Catalog* fixed = layout;
    MultiDriveConfig drives;
    drives.num_drives = point.drives;
    out->multi_drive = std::make_unique<MultiDriveSimulator>(
        jukebox, fixed, drives, config.sim);
    return Status::Ok();
  }
  out->owned_scheduler = CreateScheduler(config.algorithm, jukebox, layout);
  if (tracer != nullptr) {
    tracer->scheduler = std::make_unique<TimingScheduler>(
        std::move(out->owned_scheduler), jukebox, layout, tracer->stream);
    out->scheduler = tracer->scheduler.get();
  } else {
    out->scheduler = out->owned_scheduler.get();
  }
  switch (engine) {
    case Engine::kSimulator:
      out->simulator = std::make_unique<Simulator>(jukebox, layout,
                                                   out->scheduler, config.sim);
      break;
    case Engine::kWriteback:
      out->writeback = std::make_unique<WritebackSimulator>(
          jukebox, layout, out->scheduler, config.sim, point.writes);
      break;
    case Engine::kLifecycle:
      out->lifecycle = std::make_unique<LifecycleSimulator>(
          jukebox, layout, out->scheduler, config.sim, point.lifecycle);
      break;
    case Engine::kMultiDrive:
    case Engine::kFarm:
      TJ_CHECK(false) << "not a point engine";
  }
  return Status::Ok();
}

template <typename Sim>
auto TimedRun(Sim* sim, Tracer* tracer) {
  const Clock::time_point start = Clock::now();
  auto result = sim->Run();
  if (tracer != nullptr) tracer->run_s += Since(start);
  return result;
}

/// Builds and runs one point by hand (for a single-drive point, what
/// ExperimentRunner::Run does), so a tracer can wrap the scheduler. For
/// single-drive points `sim_out` receives the result and `jukebox_out`
/// the jukebox's whole-run counters, when non-null.
PointResult RunPoint(Engine engine, const Point& point,
                     const ExperimentConfig& config, Tracer* tracer,
                     SimulationResult* sim_out = nullptr,
                     JukeboxCounters* jukebox_out = nullptr) {
  BuiltPoint built;
  const Status status = BuildPoint(engine, point, config, tracer, &built);
  if (!status.ok()) return Failed(status.ToString());
  switch (engine) {
    case Engine::kSimulator: {
      ExperimentResult result;
      result.sim = TimedRun(built.simulator.get(), tracer);
      result.layout =
          LayoutBuilder::ComputeStats(*built.jukebox, *built.catalog);
      result.algorithm_name = built.scheduler->name();
      if (sim_out != nullptr) *sim_out = result.sim;
      if (jukebox_out != nullptr) *jukebox_out = built.jukebox->counters();
      return SummarizeExperiment(result);
    }
    case Engine::kMultiDrive:
      return SummarizeSim(TimedRun(built.multi_drive.get(), tracer));
    case Engine::kWriteback:
      return SummarizeSim(TimedRun(built.writeback.get(), tracer));
    case Engine::kLifecycle: {
      const std::vector<EpochStats> epochs =
          TimedRun(built.lifecycle.get(), tracer);
      return SummarizeLifecycle(epochs, built.lifecycle->replicas_written(),
                                built.lifecycle->fill_target());
    }
    case Engine::kFarm:
      break;
  }
  TJ_CHECK(false) << "not a point engine";
  return PointResult{};
}

/// Builds and discards every point (every farm box) of the workload: the
/// setup_s measurement.
void SetUpWorkload(const Workload& w) {
  for (const Grid& grid : w.grids) {
    for (size_t i = 0; i < grid.points.size(); ++i) {
      const Point& point = grid.points[i];
      const Engine engine = PointEngine(point);
      const int32_t boxes =
          point.engine == Engine::kFarm ? point.farm.num_jukeboxes : 1;
      for (int32_t b = 0; b < boxes; ++b) {
        BuiltPoint built;
        const Status status = BuildPoint(
            engine, point,
            point.engine == Engine::kFarm ? FarmBoxConfig(point.farm, b)
                                          : EffectiveConfig(point, i),
            nullptr, &built);
        TJ_CHECK(status.ok()) << status.ToString();
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Passes.
// ---------------------------------------------------------------------------

/// One pass over the workload: results per grid per point.
struct Pass {
  std::vector<std::vector<PointResult>> grids;
  std::vector<double> grid_wall_s;
  double wall_s = 0;
};

/// Runs a farm on `threads` worker threads.
FarmResult RunFarm(FarmConfig config, int threads) {
  config.threads = threads;
  FarmSimulator sim(config);
  return sim.Run();
}

/// The untraced pass, through the public entry points a user calls:
/// SweepRunner::Run for bench grids, the simulators for bespoke grids,
/// FarmSimulator for farms. `after_grid`, when set, is called with each
/// grid's wall outside the timed region.
Pass RunPass(const Workload& w,
             const std::function<void(double)>& after_grid = nullptr) {
  Pass pass;
  for (const Grid& grid : w.grids) {
    const Clock::time_point grid_start = Clock::now();
    std::vector<PointResult> results;
    if (grid.sweep) {
      SweepOptions options;
      options.threads = 1;
      options.base_seed = w.seed;
      std::vector<ExperimentConfig> configs;
      for (const Point& point : grid.points) configs.push_back(point.config);
      StatusOr<std::vector<ExperimentResult>> run =
          SweepRunner(options).Run(configs);
      for (size_t i = 0; i < grid.points.size(); ++i) {
        results.push_back(run.ok() ? SummarizeExperiment(run.value()[i])
                                   : Failed(run.status().ToString()));
      }
    } else {
      for (size_t i = 0; i < grid.points.size(); ++i) {
        const Point& point = grid.points[i];
        if (point.engine == Engine::kFarm) {
          results.push_back(
              SummarizeFarm(RunFarm(point.farm, point.farm.threads)));
        } else {
          results.push_back(RunPoint(point.engine, point,
                                     EffectiveConfig(point, i), nullptr));
        }
      }
    }
    const double grid_wall = Since(grid_start);
    pass.grid_wall_s.push_back(grid_wall);
    pass.wall_s += grid_wall;
    pass.grids.push_back(std::move(results));
    if (after_grid) after_grid(grid_wall);
  }
  return pass;
}

/// Collects check failures; the run fails on any.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    ++attempted_;
    if (ok) return;
    ++failed_;
    if (failed_ <= 20) std::cerr << "CHECK FAILED: " << what << "\n";
  }
  /// Counts a point run: it failed if it returned an error or failed a
  /// per-point check.
  void Point(const Grid& grid, size_t index, const PointResult& r) {
    Expect(r.ok, grid.name + "[" + std::to_string(index) + "] " +
                     grid.points[index].label + ": " + r.error);
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

std::string PassDocument(const Workload& w, const Pass& pass) {
  std::string doc = "{\"workload\": \"" + w.name +
                    "\", \"seed\": " + std::to_string(w.seed) +
                    ", \"grids\": [";
  for (size_t g = 0; g < w.grids.size(); ++g) {
    if (g > 0) doc += ", ";
    doc += "{\"name\": \"" + w.grids[g].name + "\", \"points\": [";
    for (size_t i = 0; i < pass.grids[g].size(); ++i) {
      if (i > 0) doc += ", ";
      doc += pass.grids[g][i].json;
    }
    doc += "]}";
  }
  return doc + "]}\n";
}

// ---------------------------------------------------------------------------
// Metric output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int Emit(const std::vector<Metric>& metrics, const Checks& checks) {
  for (const Metric& m : metrics) {
    std::cout << m.name << " = " << JsonDouble(m.value) << " " << m.unit
              << "\n";
  }
  const bool correct = checks.failed() == 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(checks.attempted()) +
                     ", \"failed\": " + std::to_string(checks.failed()) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            JsonDouble(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ---------------------------------------------------------------------------

int RunEndToEnd(const Workload& w, double seconds,
                const std::string& results_out) {
  Checks checks;
  const Clock::time_point start = Clock::now();

  // Whole passes until the time is spent (a pass starts only if it should
  // end within half a pass of the budget); every pass must reproduce the
  // first one byte for byte. Between grids, for ~10% of each grid's time
  // each (and kMinSamples times in all), the run samples set-up and the
  // host-speed reference (TimeSpeedReference), so both see the same
  // moments of the host as the grids do. A set-up sample builds and
  // discards the whole workload's jukeboxes, layouts, schedulers and
  // simulators, repeated until it lasts at least kMinSetupSampleS so a
  // set-up of a few milliseconds is not timer and cache noise, and
  // records the time per set-up.
  constexpr double kMinSetupSampleS = 0.05;
  constexpr size_t kMinSamples = 8;
  std::vector<double> setups;
  int setup_reps = 0;
  const auto set_up = [&] {
    if (setup_reps == 0) {  // calibrate once; the cold first build is not kept
      const Clock::time_point t = Clock::now();
      SetUpWorkload(w);
      setup_reps = std::max(
          1, static_cast<int>(std::ceil(kMinSetupSampleS / Since(t))));
    }
    const Clock::time_point t = Clock::now();
    for (int rep = 0; rep < setup_reps; ++rep) SetUpWorkload(w);
    setups.push_back(Since(t) / setup_reps);
  };
  std::vector<double> walls;
  std::vector<std::vector<double>> grid_walls(w.grids.size());
  std::vector<double> references;
  const auto time_reference = [&] {
    references.push_back(TimeSpeedReference());
  };
  double setup_owed_s = 0, reference_owed_s = 0;
  const auto pay = [](double* owed_s, const auto& take_sample) {
    while (*owed_s > 0) {
      const Clock::time_point t = Clock::now();
      take_sample();
      *owed_s -= Since(t);
    }
  };
  const auto sample_between_grids = [&](double grid_wall) {
    setup_owed_s += 0.1 * grid_wall;
    reference_owed_s += 0.1 * grid_wall;
    pay(&setup_owed_s, set_up);
    pay(&reference_owed_s, time_reference);
  };
  std::optional<Pass> first;
  std::string first_doc;
  while (walls.empty() || Since(start) + 0.5 * Median(walls) < seconds) {
    Pass pass = RunPass(w, sample_between_grids);
    walls.push_back(pass.wall_s);
    for (size_t g = 0; g < w.grids.size(); ++g) {
      grid_walls[g].push_back(pass.grid_wall_s[g]);
    }
    for (size_t g = 0; g < w.grids.size(); ++g) {
      for (size_t i = 0; i < pass.grids[g].size(); ++i) {
        checks.Point(w.grids[g], i, pass.grids[g][i]);
      }
    }
    const std::string doc = PassDocument(w, pass);
    if (!first.has_value()) {
      first = std::move(pass);
      first_doc = doc;
    } else {
      checks.Expect(doc == first_doc,
                    "pass " + std::to_string(walls.size()) +
                        " results differ from pass 1 (nondeterminism)");
    }
    std::cerr << "pass " << walls.size() << ": " << walls.back() << " s\n";
  }
  while (setups.size() < kMinSamples) set_up();
  while (references.size() < kMinSamples) time_reference();
  if (!results_out.empty()) {
    const Status status = WriteTextFile(results_out, first_doc);
    checks.Expect(status.ok(), "writing " + results_out);
  }

  double settled = 0;
  double req_per_min = 0, mean_delay = 0, p99 = 0;
  int64_t points = 0, p99_points = 0, issued = 0, completed = 0;
  for (const std::vector<PointResult>& grid : first->grids) {
    for (const PointResult& r : grid) {
      settled += r.settled;
      req_per_min += r.req_per_min;
      mean_delay += r.mean_delay_s;
      ++points;
      if (r.has_p99) {
        p99 += r.p99_delay_s;
        ++p99_points;
      }
      if (r.has_conservation) {
        issued += r.issued;
        completed += r.completed;
      }
    }
  }
  // Each grid's wall is the fastest-quarter mean of its runs, and the pass
  // wall is their sum. Host times are scaled to a host that runs the speed
  // reference in kReferenceS (the reference host when calm).
  constexpr double kReferenceS = 0.1;
  const double reference = FastestQuarterMean(references);
  const double scale = kReferenceS / reference;
  double raw_wall = 0;
  for (const std::vector<double>& runs : grid_walls) {
    raw_wall += FastestQuarterMean(runs);
  }
  const double wall = raw_wall * scale;
  std::cerr << "unscaled wall " << raw_wall << " s, speed reference "
            << reference << " s (" << references.size() << " samples)\n";
  return Emit(
      {
          {"wall_s", wall, "s"},
          {"sim_requests_per_s", settled / wall, "req/s"},
          {"setup_s", FastestQuarterMean(setups) * scale, "s"},
          {"peak_rss_mb", PeakRssMb(), "MB"},
          {"sim_req_per_min", req_per_min / static_cast<double>(points),
           "req/min"},
          {"sim_mean_delay_s", mean_delay / static_cast<double>(points),
           "sim_s"},
          {"sim_p99_delay_s",
           p99_points > 0 ? p99 / static_cast<double>(p99_points) : 0.0,
           "sim_s"},
          {"sim_completed_share",
           issued > 0 ? static_cast<double>(completed) /
                            static_cast<double>(issued)
                      : 0.0,
           "ratio"},
      },
      checks);
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer split.
// ---------------------------------------------------------------------------

/// Accumulated per-layer measurements of the traced run.
struct Layers {
  SchedTimes sched;
  EnvelopeTotals envelope;
  double sched_run_s = 0;    ///< Run() wall of points with a Scheduler
  double unsched_run_s = 0;  ///< Run() wall of MultiDriveSimulator points
  double layout_s = 0;
  int64_t layout_builds = 0;
  double replay_s = 0;
  int64_t replay_switches = 0;
  int64_t replay_blocks = 0;
  double workload_s = 0;
  int64_t workload_draws = 0;
  int64_t failovers = 0;
  int64_t source_reads = 0;
  double plain_wall_s = 0;   ///< points re-run one by one, untraced
  double traced_wall_s = 0;  ///< the same points, traced
  double sweep_dispatch_s = 0;
  double farm_wall_s = 0;
  double farm_box_s = 0;
  int farm_threads = 0;
  double timeline_overhead_s = 0;
};

/// Replays a recorded (tape, position) stream through a fresh jukebox.
JukeboxCounters Replay(const TapeStream& stream, const JukeboxConfig& config,
                       Layers* layers) {
  const Clock::time_point start = Clock::now();
  Jukebox jukebox(config);
  for (const int64_t op : stream) {
    if (op < 0) {
      jukebox.SwitchTo(static_cast<TapeId>(-op - 1));
    } else {
      jukebox.ReadBlockAt(op);
    }
  }
  layers->replay_s += Since(start);
  layers->replay_switches += jukebox.counters().tape_switches;
  layers->replay_blocks += jukebox.counters().blocks_read;
  return jukebox.counters();
}

/// Times a standalone WorkloadGenerator for `draws` requests (plus the
/// arrival gaps of an open model).
void TimeWorkload(const ExperimentConfig& config, int64_t draws,
                  Layers* layers) {
  Jukebox jukebox(config.jukebox);
  StatusOr<Catalog> catalog = LayoutBuilder::Build(&jukebox, config.layout);
  TJ_CHECK(catalog.ok());
  WorkloadGenerator generator(&catalog.value(), config.sim.workload);
  const bool open = config.sim.workload.model == QueuingModel::kOpen;
  const Clock::time_point start = Clock::now();
  double now = 0;
  int64_t sink = 0;
  for (int64_t i = 0; i < draws; ++i) {
    sink += generator.NextRequest(now).block;
    if (open) now += generator.NextArrivalGap(now);
  }
  layers->workload_s += Since(start);
  layers->workload_draws += draws;
  TJ_CHECK_GE(sink, 0);
}

/// Runs one traced point and folds its measurements into `layers`.
PointResult RunTracedPoint(const Point& point, const ExperimentConfig& config,
                           Layers* layers, Checks* checks,
                           const std::string& where) {
  Tracer tracer;
  SimulationResult sim;
  JukeboxCounters counters;
  const Engine engine = PointEngine(point);
  const bool single_drive = engine == Engine::kSimulator;
  const Clock::time_point start = Clock::now();
  const PointResult result =
      RunPoint(engine, point, config, &tracer, &sim, &counters);
  layers->traced_wall_s += Since(start);
  layers->layout_s += tracer.layout_s;
  ++layers->layout_builds;
  if (tracer.scheduler == nullptr) {
    layers->unsched_run_s += tracer.run_s;
    return result;
  }
  layers->sched_run_s += tracer.run_s;
  layers->sched += tracer.scheduler->times();
  layers->envelope += tracer.scheduler->envelope();
  const JukeboxCounters replayed =
      Replay(tracer.stream, config.jukebox, layers);
  if (single_drive) {
    layers->failovers += sim.faults.failovers;
    layers->source_reads += sim.repair.source_reads;
    TimeWorkload(config, sim.issued_requests, layers);
    if (!config.sim.faults.enabled()) {
      // Without faults every switch and read comes from the scheduler's
      // stream, so the replay must reproduce the run's jukebox exactly.
      checks->Expect(replayed.tape_switches == counters.tape_switches &&
                         replayed.blocks_read == counters.blocks_read,
                     where + ": tape replay counts differ from the run's");
    }
  }
  return result;
}

/// Times one point with the timeline on vs off (median of three each) and
/// checks the results are byte-identical.
void TimeTimeline(const ExperimentConfig& config, Layers* layers,
                  Checks* checks) {
  ExperimentConfig on = config;
  on.sim.timeline.buffer_only = true;
  on.sim.timeline.interval_seconds = config.sim.duration_seconds / 500.0;
  std::vector<double> off_s, on_s;
  std::string off_json, on_json;
  for (int rep = 0; rep < 3; ++rep) {
    Clock::time_point start = Clock::now();
    const StatusOr<ExperimentResult> off_result = ExperimentRunner::Run(config);
    off_s.push_back(Since(start));
    start = Clock::now();
    const StatusOr<ExperimentResult> on_result = ExperimentRunner::Run(on);
    on_s.push_back(Since(start));
    checks->Expect(off_result.ok() && on_result.ok(), "timeline point ran");
    if (!off_result.ok() || !on_result.ok()) return;
    off_json = SummarizeExperiment(off_result.value()).json;
    on_json = SummarizeExperiment(on_result.value()).json;
  }
  checks->Expect(off_json == on_json,
                 "results differ with the timeline on vs off");
  layers->timeline_overhead_s = Median(on_s) - Median(off_s);
}

/// The sweep layer's own cost (core.sweep.dispatch_s): SweepRunner::Run
/// over each bench grid minus the same points run one by one through
/// ExperimentRunner::Run. The points are shortened to kDispatchSimSeconds
/// so simulation does not swamp the layer, and the two are alternated, in
/// both orders, over kDispatchRounds rounds. The result is the median over
/// rounds of the paired difference summed over the grids. Both ways must
/// give the same results.
double TimeSweepDispatch(const Workload& w, Checks* checks) {
  constexpr double kDispatchSimSeconds = 2000;
  constexpr int kDispatchRounds = 9;
  std::vector<std::vector<ExperimentConfig>> grids;
  for (const Grid& grid : w.grids) {
    if (!grid.sweep) continue;
    std::vector<ExperimentConfig> configs;
    for (const Point& point : grid.points) {
      ExperimentConfig config = point.config;
      config.sim.duration_seconds =
          std::min(config.sim.duration_seconds, kDispatchSimSeconds);
      config.sim.warmup_seconds = 0.1 * config.sim.duration_seconds;
      configs.push_back(std::move(config));
    }
    grids.push_back(std::move(configs));
  }
  if (grids.empty()) return 0;
  SweepOptions options;
  options.threads = 1;
  options.base_seed = w.seed;
  const SweepRunner runner(options);
  std::vector<double> diffs;
  for (int round = 0; round < kDispatchRounds; ++round) {
    double diff = 0;
    for (const std::vector<ExperimentConfig>& configs : grids) {
      StatusOr<std::vector<ExperimentResult>> swept =
          Status(StatusCode::kInternal, "not run");
      std::vector<ExperimentResult> alone(configs.size());
      bool alone_ok = true;
      const auto time_sweep = [&] {
        const Clock::time_point start = Clock::now();
        swept = runner.Run(configs);
        diff += Since(start);
      };
      const auto time_alone = [&] {
        const Clock::time_point start = Clock::now();
        for (size_t i = 0; i < configs.size(); ++i) {
          StatusOr<ExperimentResult> run =
              ExperimentRunner::Run(runner.EffectiveConfig(configs[i], i));
          alone_ok = alone_ok && run.ok();
          if (run.ok()) alone[i] = std::move(run).value();
        }
        diff -= Since(start);
      };
      if (round % 2 == 0) {
        time_sweep();
        time_alone();
      } else {
        time_alone();
        time_sweep();
      }
      if (round > 0) continue;
      checks->Expect(swept.ok() && alone_ok, "shortened sweep grid ran");
      if (!swept.ok() || !alone_ok) continue;
      for (size_t i = 0; i < configs.size(); ++i) {
        checks->Expect(SummarizeExperiment(swept.value()[i]).json ==
                           SummarizeExperiment(alone[i]).json,
                       "shortened point " + std::to_string(i) +
                           ": sweep and one-by-one results differ");
      }
    }
    diffs.push_back(diff);
  }
  return Median(diffs);
}

int RunPerLayer(const Workload& w) {
  Checks checks;
  Layers layers;

  // (1) The untraced pass, exactly as --trace 0 runs it.
  const Pass reference = RunPass(w);
  for (size_t g = 0; g < w.grids.size(); ++g) {
    for (size_t i = 0; i < reference.grids[g].size(); ++i) {
      checks.Point(w.grids[g], i, reference.grids[g][i]);
    }
  }
  std::cerr << "untraced pass: " << reference.wall_s << " s\n";

  for (size_t g = 0; g < w.grids.size(); ++g) {
    const Grid& grid = w.grids[g];
    for (size_t i = 0; i < grid.points.size(); ++i) {
      const Point& point = grid.points[i];
      const std::string where = grid.name + "[" + std::to_string(i) + "]";
      if (point.engine != Engine::kFarm) {
        // (2) The point alone, untraced, then (3) traced. Both must write
        // the reference pass's results byte for byte.
        const ExperimentConfig config = EffectiveConfig(point, i);
        Clock::time_point start = Clock::now();
        PointResult plain;
        if (point.engine == Engine::kSimulator) {
          const StatusOr<ExperimentResult> run = ExperimentRunner::Run(config);
          plain = run.ok() ? SummarizeExperiment(run.value())
                           : Failed(run.status().ToString());
        } else {
          plain = RunPoint(point.engine, point, config, nullptr);
        }
        layers.plain_wall_s += Since(start);
        checks.Point(grid, i, plain);
        checks.Expect(plain.json == reference.grids[g][i].json,
                      where + ": point run alone differs from the sweep");
        const PointResult traced =
            RunTracedPoint(point, config, &layers, &checks, where);
        checks.Point(grid, i, traced);
        checks.Expect(traced.json == reference.grids[g][i].json,
                      where + ": traced results differ from untraced");
        continue;
      }
      // Farm: (2) thread-count invariance of the whole farm, (3) every box
      // re-run standalone, untraced then traced.
      const FarmResult serial = RunFarm(point.farm, 1);
      checks.Expect(SummarizeFarm(serial).json == reference.grids[g][i].json,
                    where + ": farm results differ at 1 vs " +
                        std::to_string(point.farm.threads) + " threads");
      // The reference pass ran cold (thread start-up, first-touch memory);
      // the efficiency is taken against a warm run.
      const Clock::time_point farm_start = Clock::now();
      RunFarm(point.farm, point.farm.threads);
      layers.farm_wall_s += Since(farm_start);
      layers.farm_threads = point.farm.threads;
      for (int32_t b = 0; b < point.farm.num_jukeboxes; ++b) {
        const ExperimentConfig box = FarmBoxConfig(point.farm, b);
        const std::string box_where = where + " box " + std::to_string(b);
        const Clock::time_point start = Clock::now();
        const StatusOr<ExperimentResult> plain = ExperimentRunner::Run(box);
        const double box_s = Since(start);
        layers.farm_box_s += box_s;
        layers.plain_wall_s += box_s;
        checks.Expect(plain.ok(), box_where + " ran");
        if (!plain.ok()) continue;
        checks.Expect(plain.value().sim.completed_total ==
                          serial.completions_per_jukebox[b],
                      box_where + ": standalone completions differ from "
                                  "the farm's completions_per_jukebox");
        const PointResult traced =
            RunTracedPoint(point, box, &layers, &checks, box_where);
        checks.Expect(traced.ok, box_where + ": " + traced.error);
        checks.Expect(traced.json == SummarizeExperiment(plain.value()).json,
                      box_where + ": traced results differ from untraced");
      }
    }
  }
  std::cerr << "traced points: " << layers.traced_wall_s << " s (untraced "
            << layers.plain_wall_s << " s)\n";

  // (4) The sweep layer alone, and one point with the timeline on vs off.
  layers.sweep_dispatch_s = TimeSweepDispatch(w, &checks);
  {
    const Point& point = w.grids[w.timeline_grid].points[w.timeline_point];
    TimeTimeline(point.engine == Engine::kFarm
                     ? FarmBoxConfig(point.farm, 0)
                     : EffectiveConfig(point, w.timeline_point),
                 &layers, &checks);
  }

  const SchedTimes& s = layers.sched;
  const EnvelopeTotals& e = layers.envelope;
  const auto per = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const auto count = [](int64_t n) { return static_cast<double>(n); };
  return Emit(
      {
          {"sched.major.calls", count(s.major_calls), "count"},
          {"sched.major.self_s", s.major_s, "s"},
          {"sched.major.us_per_call",
           per(s.major_s * 1e6, count(s.major_calls)), "us"},
          {"sched.major.pending_mean",
           per(s.major_pending_sum, count(s.major_calls)), "requests"},
          {"sched.arrival.calls", count(s.arrival_calls), "count"},
          {"sched.arrival.self_s", s.arrival_s, "s"},
          {"sched.pop.self_s", s.pop_s, "s"},
          {"sched.evict.self_s", s.evict_s, "s"},
          {"sched.background.self_s", s.background_s, "s"},
          {"sched.envelope.extension_rounds", count(e.extension_rounds),
           "count"},
          {"sched.envelope.tapes_rescored", count(e.tapes_rescored), "count"},
          {"sched.envelope.master_rebuilds", count(e.master_rebuilds),
           "count"},
          {"sched.envelope.epoch_reuses", count(e.epoch_reuses), "count"},
          {"sched.envelope.insert_ratio",
           per(count(e.incremental_inserts), count(e.arrivals)), "ratio"},
          {"sim.run.self_s",
           layers.sched_run_s + layers.unsched_run_s - s.total_s(), "s"},
          {"sim.run.ns_per_event",
           per((layers.sched_run_s - s.total_s()) * 1e9, count(s.events())),
           "ns"},
          {"sim.workload.ns_per_request",
           per(layers.workload_s * 1e9, count(layers.workload_draws)), "ns"},
          {"sim.faults.failovers", count(layers.failovers), "count"},
          {"sim.repair.source_reads", count(layers.source_reads), "count"},
          {"tape.replay_s", layers.replay_s, "s"},
          {"tape.switches", count(layers.replay_switches), "count"},
          {"tape.blocks_read", count(layers.replay_blocks), "count"},
          {"layout.build_s", layers.layout_s, "s"},
          {"layout.builds", count(layers.layout_builds), "count"},
          {"core.sweep.dispatch_s", layers.sweep_dispatch_s, "s"},
          {"core.farm.box_s", layers.farm_box_s, "s"},
          {"core.farm.parallel_efficiency",
           per(layers.farm_box_s, layers.farm_threads * layers.farm_wall_s),
           "ratio"},
          {"obs.trace_overhead_share",
           per(layers.traced_wall_s, layers.plain_wall_s) - 1.0, "ratio"},
          {"obs.timeline_overhead_s", layers.timeline_overhead_s, "s"},
      },
      checks);
}

// ---------------------------------------------------------------------------
// Command line.
// ---------------------------------------------------------------------------

int Usage(const std::string& error) {
  std::cerr << "error: " << error
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--size full|small] [--results-out PATH]\n"
               "workloads: figure_suite deep_queue farm_degraded\n";
  return 2;
}

bool ParseInt(const std::string& text, int64_t* out) {
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0') return false;
  *out = value;
  return true;
}

int Main(int argc, char** argv) {
  std::string workload_name, size = "full", results_out;
  int64_t seed = -1, seconds = -1, trace = -1;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      return Usage("missing value for " + arg);
    }
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--seed") {
      if (!ParseInt(value, &seed) || seed < 0) return Usage("bad --seed");
    } else if (arg == "--seconds") {
      if (!ParseInt(value, &seconds) || seconds < 1) {
        return Usage("bad --seconds");
      }
    } else if (arg == "--trace") {
      if (!ParseInt(value, &trace) || (trace != 0 && trace != 1)) {
        return Usage("--trace must be 0 or 1");
      }
    } else if (arg == "--size") {
      if (value != "full" && value != "small") return Usage("bad --size");
      size = value;
    } else if (arg == "--results-out") {
      results_out = value;
    } else {
      return Usage("unknown flag " + arg);
    }
  }
  if (seed < 0 || seconds < 0 || trace < 0 || workload_name.empty()) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }
  Workload w;
  if (!MakeWorkload(workload_name, static_cast<uint64_t>(seed),
                    size == "small", &w)) {
    return Usage("unknown workload " + workload_name);
  }
  std::cerr << "workload " << w.name << ": " << w.num_points()
            << " points, seed " << seed << ", " << size << " size\n";
  return trace == 1 ? RunPerLayer(w)
                    : RunEndToEnd(w, static_cast<double>(seconds),
                                  results_out);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
