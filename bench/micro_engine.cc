// Microbenchmark: the DES engine at farm scale.
//
// Two measurements, emitted into results/micro_engine.json (schema in
// docs/RESULTS.md, methodology in docs/PERFORMANCE.md):
//
//  * farm_scale — whole-farm simulation throughput: the sharded
//    FarmSimulator (one Simulator per box, boxes fanned over the thread
//    pool) vs a bench-local reimplementation of the pre-PR serial farm
//    (one global event loop over every box, binary-heap queue, migrating
//    closed population). Reported as simulated events per wall second
//    (issued + completed + failed requests) and simulated seconds per
//    wall second. The sharded/serial ratio scales with the worker count,
//    so absolute speedups are machine-dependent; the serial baseline is
//    timed on the same machine in the same process.
//  * --check — the CI determinism gate: EventQueue must pop a churn trace
//    in exactly the order of a std::priority_queue reference, and a
//    multi-drive farm must serialize byte-identical FarmResult JSON at
//    --threads 1 vs 4. Fails (TJ_CHECK abort) on divergence; timings are
//    reported but never gate the build.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/farm.h"
#include "core/results_io.h"
#include "core/tapejuke.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/rng.h"

namespace tapejuke {
namespace {

// ---------------------------------------------------------------------------
// The reference queue, bench-local: a (time, seq)-ordered std::priority_queue
// with the same Schedule/NextTime/Pop surface as EventQueue.
// ---------------------------------------------------------------------------

template <typename Payload>
class LegacyHeapQueue {
 public:
  void Schedule(double time, Payload payload) {
    heap_.push(Item{time, next_seq_++, std::move(payload)});
  }
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  double NextTime() const { return heap_.top().time; }
  std::pair<double, Payload> Pop() {
    Item item = heap_.top();
    heap_.pop();
    return {item.time, std::move(item.payload)};
  }

 private:
  struct Item {
    double time;
    uint64_t seq;
    Payload payload;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Item, std::vector<Item>, Later> heap_;
  uint64_t next_seq_ = 0;
};

double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

/// Determinism cross-check: EventQueue must pop a random schedule/pop
/// trace in exactly the reference heap's (time, FIFO-seq) order.
void CheckQueueOrderAgainstHeap() {
  EventQueue<int> queue;
  LegacyHeapQueue<int> heap;
  Rng rng(2024);
  double clock = 0;
  int payload = 0;
  int64_t compared = 0;
  for (int round = 0; round < 50000; ++round) {
    const auto burst = static_cast<int>(rng.UniformUint64(4));
    for (int i = 0; i < burst; ++i) {
      // Mix of equal-time events (FIFO tie-break must agree), near-future
      // events, and sparse far-future spikes.
      double when = clock;
      const uint64_t kind = rng.UniformUint64(8);
      if (kind < 5) {
        when += rng.UniformDouble() * 200.0;
      } else if (kind < 7) {
        when += 0.0;  // ties
      } else {
        when += 1e5 + rng.UniformDouble() * 1e7;
      }
      queue.Schedule(when, payload);
      heap.Schedule(when, payload);
      ++payload;
    }
    while (!heap.empty() &&
           (heap.size() > 512 || rng.UniformUint64(3) == 0)) {
      const auto [heap_time, heap_payload] = heap.Pop();
      const auto [queue_time, queue_payload] = queue.Pop();
      TJ_CHECK_EQ(heap_time, queue_time) << "event-queue order diverged";
      TJ_CHECK_EQ(heap_payload, queue_payload)
          << "event-queue FIFO tie-break diverged at t=" << heap_time;
      clock = heap_time;
      ++compared;
    }
  }
  std::cout << "queue order check: PASS (" << compared
            << " pops bit-identical to the priority_queue reference)\n";
}

// ---------------------------------------------------------------------------
// farm_scale: sharded FarmSimulator vs the pre-PR serial farm.
// ---------------------------------------------------------------------------

/// The pre-PR farm, bench-local: every box's events interleave in one
/// global loop over a binary-heap queue; the closed population migrates
/// (a completion regenerates onto a router-drawn box); one shared
/// MetricsCollector records every arrival/completion, exactly as the old
/// FarmSimulator did. Kept as the baseline the sharded engine is measured
/// against.
class LegacySerialFarm {
 public:
  struct Totals {
    int64_t issued = 0;
    int64_t completed = 0;
    double clock = 0;
  };

  explicit LegacySerialFarm(const FarmConfig& config) : config_(config) {
    for (int32_t i = 0; i < config.num_jukeboxes; ++i) {
      boxes_.push_back(std::make_unique<Box>(config.per_jukebox));
    }
  }

  Totals Run() {
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const SimulationConfig& sim = config_.per_jukebox.sim;
    const bool closed = sim.workload.model == QueuingModel::kClosed;
    WorkloadGenerator workload(&boxes_.front()->catalog, sim.workload);
    Rng router(sim.workload.seed ^ 0xfeedfacecafef00dULL);
    MetricsCollector metrics(sim.warmup_seconds,
                             config_.per_jukebox.jukebox.block_size_mb);
    Totals totals;

    const auto route = [&](double now) {
      const auto target = static_cast<int>(
          router.UniformUint64(static_cast<uint64_t>(boxes_.size())));
      Box& box = *boxes_[static_cast<size_t>(target)];
      const Request request = workload.NextRequest(now);
      metrics.OnArrival(now);
      box.AccumulateOutstanding(now);
      ++box.outstanding;
      ++totals.issued;
      box.scheduler->OnArrival(request, box.jukebox.head());
      Dispatch(target, now);
    };

    double next_arrival = 0;
    if (closed) {
      for (int64_t i = 0; i < sim.workload.queue_length; ++i) route(0.0);
    } else {
      next_arrival = workload.NextInterarrival();
    }
    bool warmup_marked = false;
    const auto maybe_warmup = [&]() {
      if (!warmup_marked && clock_ >= sim.warmup_seconds) {
        warmup_marked = true;
        metrics.MarkWarmupBoundary(JukeboxCounters{});
      }
    };
    maybe_warmup();

    while (clock_ < sim.duration_seconds) {
      const double event_time = events_.empty() ? kInf : events_.NextTime();
      const double arrival_time = closed ? kInf : next_arrival;
      const double next = std::min(event_time, arrival_time);
      if (next == kInf || next > sim.duration_seconds) break;
      clock_ = next;
      if (arrival_time <= event_time) {
        route(clock_);
        next_arrival = clock_ + workload.NextInterarrival();
      } else {
        const auto [time, box_index] = events_.Pop();
        Box& box = *boxes_[static_cast<size_t>(box_index)];
        box.busy = false;
        if (box.in_flight.has_value()) {
          const ServiceEntry entry = std::move(*box.in_flight);
          box.in_flight.reset();
          for (const Request& request : entry.requests) {
            metrics.OnCompletion(request.arrival_time, clock_);
            box.AccumulateOutstanding(clock_);
            --box.outstanding;
            ++totals.completed;
            if (closed) route(clock_);
          }
        }
        Dispatch(box_index, clock_);
      }
      maybe_warmup();
    }
    totals.clock = clock_;
    return totals;
  }

 private:
  struct Box {
    explicit Box(const ExperimentConfig& config)
        : jukebox(config.jukebox),
          catalog(LayoutBuilder::Build(&jukebox, config.layout).value()),
          scheduler(CreateScheduler(config.algorithm, &jukebox, &catalog)) {}

    void AccumulateOutstanding(double now) {
      outstanding_area +=
          static_cast<double>(outstanding) * (now - last_transition);
      last_transition = now;
    }

    Jukebox jukebox;
    Catalog catalog;
    std::unique_ptr<Scheduler> scheduler;
    std::optional<ServiceEntry> in_flight;
    bool busy = false;
    int64_t outstanding = 0;
    double last_transition = 0;
    double outstanding_area = 0;
  };

  void Dispatch(int box_index, double now) {
    Box& box = *boxes_[static_cast<size_t>(box_index)];
    if (box.busy) return;
    if (box.scheduler->sweep_empty()) {
      if (!box.scheduler->HasWork()) return;
      const TapeId tape = box.scheduler->MajorReschedule();
      TJ_CHECK_NE(tape, kInvalidTape);
      const double switch_seconds = box.jukebox.SwitchTo(tape);
      box.busy = true;
      events_.Schedule(now + switch_seconds, box_index);
      return;
    }
    const std::optional<ServiceEntry> entry = box.scheduler->PopNext();
    TJ_CHECK(entry.has_value());
    const double op_seconds = box.jukebox.ReadBlockAt(entry->position);
    box.in_flight = *entry;
    box.busy = true;
    events_.Schedule(now + op_seconds, box_index);
  }

  FarmConfig config_;
  std::vector<std::unique_ptr<Box>> boxes_;
  LegacyHeapQueue<int> events_;
  double clock_ = 0;
};

struct FarmScaleRow {
  int boxes = 0;
  int threads = 0;
  double duration_seconds = 0;
  int64_t events = 0;
  double wall_seconds = 0;
  double events_per_sec = 0;
  double sim_seconds_per_wall_second = 0;
  int64_t legacy_events = 0;
  double legacy_wall_seconds = 0;
  double legacy_events_per_sec = 0;
  double speedup_vs_legacy = 0;
};

FarmConfig ScaleFarm(int boxes, double duration, int threads) {
  FarmConfig config;
  config.num_jukeboxes = boxes;
  config.threads = threads;
  config.per_jukebox.algorithm =
      AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  config.per_jukebox.sim.duration_seconds = duration;
  config.per_jukebox.sim.warmup_seconds = duration / 10;
  config.per_jukebox.sim.workload.queue_length = 60L * boxes;
  config.per_jukebox.sim.workload.seed = 7;
  return config;
}

std::vector<FarmScaleRow> RunFarmScale(const std::vector<int>& box_counts,
                                       double duration, int threads) {
  std::vector<FarmScaleRow> rows;
  for (const int boxes : box_counts) {
    const FarmConfig config = ScaleFarm(boxes, duration, threads);
    FarmScaleRow row;
    row.boxes = boxes;
    row.threads = threads;
    row.duration_seconds = duration;

    // Both farms are timed end to end, box construction included (the
    // legacy farm builds boxes in its constructor, the sharded farm
    // inside Run).
    {
      const double start = NowSeconds();
      FarmSimulator farm(config);
      const FarmResult result = farm.Run();
      row.wall_seconds = NowSeconds() - start;
      row.events = result.aggregate.issued_requests +
                   result.aggregate.completed_total +
                   result.aggregate.failed_requests;
    }
    row.events_per_sec =
        static_cast<double>(row.events) / row.wall_seconds;
    row.sim_seconds_per_wall_second = duration / row.wall_seconds;

    {
      const double start = NowSeconds();
      LegacySerialFarm legacy(config);
      const LegacySerialFarm::Totals totals = legacy.Run();
      row.legacy_wall_seconds = NowSeconds() - start;
      row.legacy_events = totals.issued + totals.completed;
    }
    row.legacy_events_per_sec =
        static_cast<double>(row.legacy_events) / row.legacy_wall_seconds;
    row.speedup_vs_legacy =
        row.events_per_sec / row.legacy_events_per_sec;
    rows.push_back(row);
  }
  return rows;
}

void PrintFarmScale(const std::vector<FarmScaleRow>& rows) {
  std::cout << "\nFarm-scale engine throughput (closed queue 60/box, "
               "dynamic max-bandwidth)\n";
  std::cout << std::setw(8) << "boxes" << std::setw(9) << "threads"
            << std::setw(14) << "events/s" << std::setw(14) << "sim-s/wall-s"
            << std::setw(18) << "legacy events/s" << std::setw(10)
            << "speedup" << "\n";
  for (const FarmScaleRow& row : rows) {
    std::cout << std::setw(8) << row.boxes << std::setw(9) << row.threads
              << std::setw(14) << std::fixed << std::setprecision(0)
              << row.events_per_sec << std::setw(14) << std::setprecision(1)
              << row.sim_seconds_per_wall_second << std::setw(18)
              << std::setprecision(0) << row.legacy_events_per_sec
              << std::setw(10) << std::setprecision(2)
              << row.speedup_vs_legacy << "\n";
  }
}

// ---------------------------------------------------------------------------
// --check: farm thread-invariance gate.
// ---------------------------------------------------------------------------

struct CheckStats {
  int boxes = 0;
  int64_t completed = 0;
};

std::string FarmJson(const FarmResult& result) {
  std::ostringstream out;
  JsonWriter w(&out);
  WriteJson(&w, result);
  return out.str();
}

CheckStats RunDeterminismCheck() {
  CheckQueueOrderAgainstHeap();

  // A multi-drive farm with faults exercises every merged subsystem; the
  // serialized result must be byte-identical at --threads 1 vs 4.
  FarmConfig serial = ScaleFarm(/*boxes=*/12, /*duration=*/50'000,
                                /*threads=*/1);
  serial.drives_per_jukebox = 2;
  serial.per_jukebox.layout.num_replicas = 2;
  serial.per_jukebox.layout.start_position = 1.0;
  serial.per_jukebox.sim.faults.transient_read_error_prob = 0.01;
  FarmConfig parallel = serial;
  parallel.threads = 4;
  const FarmResult a = FarmSimulator(serial).Run();
  const FarmResult b = FarmSimulator(parallel).Run();
  TJ_CHECK(FarmJson(a) == FarmJson(b))
      << "farm results diverged between --threads 1 and --threads 4";
  std::cout << "farm determinism check: PASS (12 multi-drive boxes, "
            << a.aggregate.completed_requests
            << " completions, byte-identical at threads 1 vs 4)\n";
  CheckStats stats;
  stats.boxes = 12;
  stats.completed = a.aggregate.completed_requests;
  return stats;
}

void WriteResults(const std::string& results_dir,
                  const std::vector<FarmScaleRow>& farm_rows,
                  const CheckStats* check) {
  if (results_dir.empty()) return;
  std::ostringstream os;
  JsonWriter w(&os);
  w.BeginObject();
  w.Field("bench", "micro_engine");
  w.Key("farm_scale");
  w.BeginArray();
  for (const FarmScaleRow& row : farm_rows) {
    w.BeginObject();
    w.Field("boxes", static_cast<int64_t>(row.boxes));
    w.Field("threads", static_cast<int64_t>(row.threads));
    w.Field("duration_seconds", row.duration_seconds);
    w.Field("events", row.events);
    w.Field("wall_seconds", row.wall_seconds);
    w.Field("events_per_sec", row.events_per_sec);
    w.Field("sim_seconds_per_wall_second",
            row.sim_seconds_per_wall_second);
    w.Field("legacy_events", row.legacy_events);
    w.Field("legacy_wall_seconds", row.legacy_wall_seconds);
    w.Field("legacy_events_per_sec", row.legacy_events_per_sec);
    w.Field("speedup_vs_legacy", row.speedup_vs_legacy);
    w.EndObject();
  }
  w.EndArray();
  if (check != nullptr) {
    w.Key("determinism_check");
    w.BeginObject();
    w.Field("passed", true);
    w.Field("boxes", static_cast<int64_t>(check->boxes));
    w.Field("completed_requests", check->completed);
    w.EndObject();
  }
  w.EndObject();
  os << "\n";
  const std::string path = results_dir + "/micro_engine.json";
  const Status status = WriteTextFile(path, os.str());
  TJ_CHECK(status.ok()) << status.ToString();
  std::cout << "results: " << path << "\n";
}

}  // namespace
}  // namespace tapejuke

int main(int argc, char** argv) {
  std::string results_dir = "results";
  bool check_only = false;
  int threads = 0;  // 0 = hardware concurrency
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--results-dir=", 0) == 0) {
      results_dir = arg.substr(std::string("--results-dir=").size());
    } else if (arg.rfind("--threads=", 0) == 0) {
      threads = std::atoi(arg.c_str() + std::string("--threads=").size());
    } else if (arg == "--check") {
      check_only = true;
    } else {
      std::cerr << "unknown flag: " << arg
                << " (expected --check, --threads=N, --results-dir=DIR)\n";
      return 1;
    }
  }

  // --check trims the grids to one quick point each (the CI artifact) and
  // runs the determinism gate; the full grids are for local measurement.
  const std::vector<int> box_counts =
      check_only ? std::vector<int>{16}
                 : std::vector<int>{32, 128, 256, 512};
  const double duration = check_only ? 50'000 : 200'000;

  const std::vector<tapejuke::FarmScaleRow> farm_rows =
      tapejuke::RunFarmScale(box_counts, duration, threads);
  tapejuke::PrintFarmScale(farm_rows);

  tapejuke::CheckStats check;
  if (check_only) check = tapejuke::RunDeterminismCheck();
  tapejuke::WriteResults(results_dir, farm_rows,
                         check_only ? &check : nullptr);
  return 0;
}
