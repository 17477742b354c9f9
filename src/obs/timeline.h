// Deterministic time-series telemetry: a stat registry plus a sim-time
// sampler that turns a run into an inspectable JSONL timeline.
//
// End-of-run aggregates cannot distinguish a run that sheds for three
// simulated hours and recovers from one that degrades steadily. The
// timeline closes that gap: layers (scheduler, admission, fault/repair,
// drives, metrics) register probes into a StatRegistry, and a
// TimelineSampler reads every probe at a fixed simulated-time interval,
// emitting one JSONL row per sample. Four probe kinds:
//
//  * counter — cumulative int64 (requests issued/completed/shed, ...);
//    rows carry the cumulative value, validated non-decreasing;
//  * gauge — instantaneous double (queue depth, outstanding, admission
//    shed level, repair backlog, live-replica fraction);
//  * accum — cumulative double; rows carry the delta since the previous
//    row (per-state time-in-state seconds);
//  * window — a histogram reset at every row; rows carry {count, p50,
//    p99} of the observations inside the interval (per-tenant-class
//    delay, from which goodput per interval = count / interval).
//
// Sampling is driven by the simulator's existing event machinery: it
// interleaves SampleUpTo with the calendar-queue expiry stream while it
// delivers client events up to each drive action. Rows are pure observation — a sample never
// advances the simulation clock, marks warm-up, or wakes a drive — and
// all timestamps come from the simulated clock, so output is
// byte-identical at any --threads and results JSON is byte-identical
// with the timeline on or off. Everything is buffered and written once
// at FinishAt (docs/OBSERVABILITY.md documents the schema;
// tools/timeline_check.py validates it).

#ifndef TAPEJUKE_OBS_TIMELINE_H_
#define TAPEJUKE_OBS_TIMELINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "util/stats.h"
#include "util/status.h"

namespace tapejuke {
namespace obs {

/// Opt-in timeline knobs, carried inside SimulationConfig next to the
/// TraceConfig. Never serialized into results JSON: sampling must not
/// change results output.
struct TimelineConfig {
  /// JSONL output path; empty disables writing (see buffer_only).
  std::string out;
  /// Simulated seconds between samples; <= 0 disables the timeline.
  double interval_seconds = 0;
  /// Keep rows in memory instead of writing a file (the farm runs each
  /// box buffered and writes per-box plus merged documents itself).
  bool buffer_only = false;
  /// Farm box index stamped into every sample row; -1 for standalone
  /// runs (no "box" key is emitted).
  int32_t box = -1;

  bool enabled() const {
    return interval_seconds > 0 && (!out.empty() || buffer_only);
  }
};

/// A histogram over one sampling interval: observations accumulate
/// between rows and Reset() clears them after each emission. Quantiles
/// are overflow-honest — when the target mass lands past the histogram
/// range the tracked window maximum is returned instead of saturating
/// at the range bound (the same discipline as the end-of-run p99).
class WindowStat {
 public:
  WindowStat(double lo, double hi, int buckets);

  void Add(double x);
  void Reset();

  int64_t count() const { return hist_.count(); }
  int64_t overflow() const { return hist_.overflow(); }
  double window_max() const { return stat_.max(); }
  double Quantile(double q) const { return hist_.Quantile(q, stat_.max()); }

 private:
  double lo_;
  double hi_;
  int buckets_;
  Histogram hist_;
  RunningStat stat_;
};

/// Named probes the sampler reads at every row. Registration order is
/// emission order; names must be unique per kind. The registry freezes
/// at the first sample — registering after that is a bug (TJ_CHECK).
class StatRegistry {
 public:
  using CounterFn = std::function<int64_t()>;
  using GaugeFn = std::function<double()>;

  /// Cumulative int64 probe; rows carry the value, non-decreasing.
  void AddCounter(const std::string& name, CounterFn fn);
  /// Instantaneous double probe; rows carry the raw value.
  void AddGauge(const std::string& name, GaugeFn fn);
  /// Cumulative double probe; rows carry the delta since the last row.
  void AddAccum(const std::string& name, GaugeFn fn);
  /// Windowed histogram; rows carry {count, p50, p99} and reset it. The
  /// returned pointer is stable and owned by the registry.
  WindowStat* AddWindow(const std::string& name, double lo, double hi,
                        int buckets);

  size_t num_counters() const { return counters_.size(); }
  size_t num_gauges() const { return gauges_.size(); }
  size_t num_accums() const { return accums_.size(); }
  size_t num_windows() const { return windows_.size(); }

 private:
  friend class TimelineSampler;

  template <typename Fn>
  struct Probe {
    std::string name;
    Fn fn;
  };
  struct Window {
    std::string name;
    std::unique_ptr<WindowStat> stat;
  };

  void CheckName(const std::string& name) const;

  bool frozen_ = false;
  std::vector<Probe<CounterFn>> counters_;
  std::vector<Probe<GaugeFn>> gauges_;
  std::vector<Probe<GaugeFn>> accums_;
  std::vector<Window> windows_;
};

/// Whole-run roll-up of the emitted rows, appended as the document's
/// final JSONL line (never added to results JSON, which must stay
/// byte-identical with the timeline on).
struct TimelineSummary {
  int64_t samples = 0;
  /// Max over rows of the gauge named "queue_depth" (0 if absent).
  double peak_queue_depth = 0;
  /// Max over rows and windows of the interval p99 (count > 0 only).
  double worst_window_p99 = 0;
  /// Final cumulative counter values, in registration order.
  std::vector<int64_t> final_counters;
};

/// Reads every registered probe at a fixed simulated-time cadence and
/// buffers one JSONL row per sample. The owning simulator calls
/// SampleUpTo(t) whenever its event loop is about to advance past t and
/// FinishAt(end) once at the end of the run, which emits a final row at
/// the run's exact end time (so cumulative counters in the last row
/// equal the whole-run totals in results JSON), renders the summary,
/// and writes the file unless buffer_only.
class TimelineSampler {
 public:
  struct Row {
    double t = 0;
    std::string json;
  };

  explicit TimelineSampler(const TimelineConfig& config);

  StatRegistry* registry() { return &registry_; }

  /// Next due sample time (first sample fires at one interval).
  double next_due() const { return next_due_; }

  /// Emits a row for every due sample time <= t, reading probes in
  /// time order before the caller processes its event at t.
  void SampleUpTo(double t);

  /// Emits remaining rows plus a final row at `end_time`, builds the
  /// summary, and writes `config.out` unless buffer_only. Call once.
  Status FinishAt(double end_time);

  // Accessors for the farm merge and for tests; header/summary are
  // valid after the first row / FinishAt respectively.
  const std::vector<Row>& rows() const { return rows_; }
  const std::string& header_json() const { return header_json_; }
  const std::string& summary_json() const { return summary_json_; }
  const TimelineSummary& summary() const { return summary_; }
  std::vector<std::string> counter_names() const;

  /// The full document: header, rows, summary — one JSON object per
  /// line. Valid after FinishAt.
  std::string RenderJsonl() const;

 private:
  void EnsureHeader();
  void EmitRow(double t);
  std::string RenderSummary() const;

  TimelineConfig config_;
  StatRegistry registry_;
  double next_due_;
  double last_row_time_ = -1;
  bool finished_ = false;

  std::vector<Row> rows_;
  std::string header_json_;
  std::string summary_json_;
  TimelineSummary summary_;

  /// Previous cumulative values (delta/monotonicity bookkeeping).
  std::vector<int64_t> prev_counters_;
  std::vector<double> prev_accums_;
  /// Index of the gauge named "queue_depth", -1 if absent.
  int peak_gauge_index_ = -1;
};

}  // namespace obs
}  // namespace tapejuke

#endif  // TAPEJUKE_OBS_TIMELINE_H_
