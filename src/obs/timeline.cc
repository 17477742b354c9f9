#include "obs/timeline.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/json.h"

namespace tapejuke {
namespace obs {

namespace {

// Renders an int64 without locale surprises.
std::string JsonInt(int64_t v) { return std::to_string(v); }

// Renders ["a","b",...] for the header name lists.
std::string NameArray(const std::vector<std::string>& names) {
  std::string out = "[";
  for (size_t i = 0; i < names.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(names[i]);
    out += "\"";
  }
  out += "]";
  return out;
}

}  // namespace

WindowStat::WindowStat(double lo, double hi, int buckets)
    : lo_(lo), hi_(hi), buckets_(buckets), hist_(lo, hi, buckets) {}

void WindowStat::Add(double x) {
  hist_.Add(x);
  stat_.Add(x);
}

void WindowStat::Reset() {
  hist_ = Histogram(lo_, hi_, buckets_);
  stat_ = RunningStat();
}

void StatRegistry::CheckName(const std::string& name) const {
  TJ_CHECK(!frozen_) << "StatRegistry frozen (first sample already emitted); "
                     << "cannot register \"" << name << "\"";
  TJ_CHECK(!name.empty()) << "empty stat name";
  auto taken = [&name](const auto& probes) {
    for (const auto& p : probes) {
      if (p.name == name) return true;
    }
    return false;
  };
  TJ_CHECK(!taken(counters_) && !taken(gauges_) && !taken(accums_) &&
           !taken(windows_))
      << "duplicate stat name \"" << name << "\"";
}

void StatRegistry::AddCounter(const std::string& name, CounterFn fn) {
  CheckName(name);
  counters_.push_back({name, std::move(fn)});
}

void StatRegistry::AddGauge(const std::string& name, GaugeFn fn) {
  CheckName(name);
  gauges_.push_back({name, std::move(fn)});
}

void StatRegistry::AddAccum(const std::string& name, GaugeFn fn) {
  CheckName(name);
  accums_.push_back({name, std::move(fn)});
}

WindowStat* StatRegistry::AddWindow(const std::string& name, double lo,
                                    double hi, int buckets) {
  CheckName(name);
  windows_.push_back({name, std::make_unique<WindowStat>(lo, hi, buckets)});
  return windows_.back().stat.get();
}

TimelineSampler::TimelineSampler(const TimelineConfig& config)
    : config_(config), next_due_(config.interval_seconds) {
  TJ_CHECK(config_.interval_seconds > 0)
      << "TimelineSampler requires a positive interval";
}

std::vector<std::string> TimelineSampler::counter_names() const {
  std::vector<std::string> names;
  names.reserve(registry_.counters_.size());
  for (const auto& c : registry_.counters_) names.push_back(c.name);
  return names;
}

void TimelineSampler::EnsureHeader() {
  if (registry_.frozen_) return;
  registry_.frozen_ = true;

  std::vector<std::string> counters, gauges, accums, windows;
  for (const auto& p : registry_.counters_) counters.push_back(p.name);
  for (const auto& p : registry_.gauges_) gauges.push_back(p.name);
  for (const auto& p : registry_.accums_) accums.push_back(p.name);
  for (const auto& w : registry_.windows_) windows.push_back(w.name);

  header_json_ = "{\"kind\":\"header\",\"schema_version\":1"
                 ",\"interval_seconds\":" +
                 JsonDouble(config_.interval_seconds) +
                 ",\"counters\":" + NameArray(counters) +
                 ",\"gauges\":" + NameArray(gauges) +
                 ",\"accums\":" + NameArray(accums) +
                 ",\"windows\":" + NameArray(windows) + "}";

  prev_counters_.assign(registry_.counters_.size(), 0);
  prev_accums_.assign(registry_.accums_.size(), 0.0);
  for (size_t i = 0; i < registry_.gauges_.size(); ++i) {
    if (registry_.gauges_[i].name == "queue_depth") {
      peak_gauge_index_ = static_cast<int>(i);
      break;
    }
  }
}

void TimelineSampler::EmitRow(double t) {
  EnsureHeader();

  std::string row = "{\"kind\":\"sample\",\"t\":" + JsonDouble(t);
  if (config_.box >= 0) row += ",\"box\":" + std::to_string(config_.box);

  row += ",\"counters\":{";
  for (size_t i = 0; i < registry_.counters_.size(); ++i) {
    int64_t v = registry_.counters_[i].fn();
    TJ_CHECK_GE(v, prev_counters_[i])
        << "counter \"" << registry_.counters_[i].name << "\" decreased";
    prev_counters_[i] = v;
    if (i > 0) row += ",";
    row += "\"";
    row += JsonEscape(registry_.counters_[i].name);
    row += "\":";
    row += JsonInt(v);
  }

  row += "},\"gauges\":{";
  for (size_t i = 0; i < registry_.gauges_.size(); ++i) {
    double v = registry_.gauges_[i].fn();
    if (static_cast<int>(i) == peak_gauge_index_) {
      summary_.peak_queue_depth = std::max(summary_.peak_queue_depth, v);
    }
    if (i > 0) row += ",";
    row += "\"";
    row += JsonEscape(registry_.gauges_[i].name);
    row += "\":";
    row += JsonDouble(v);
  }

  row += "},\"accums\":{";
  for (size_t i = 0; i < registry_.accums_.size(); ++i) {
    double v = registry_.accums_[i].fn();
    double delta = v - prev_accums_[i];
    prev_accums_[i] = v;
    if (i > 0) row += ",";
    row += "\"";
    row += JsonEscape(registry_.accums_[i].name);
    row += "\":";
    row += JsonDouble(delta);
  }

  row += "},\"windows\":{";
  for (size_t i = 0; i < registry_.windows_.size(); ++i) {
    WindowStat* w = registry_.windows_[i].stat.get();
    double p50 = w->Quantile(0.50);
    double p99 = w->Quantile(0.99);
    if (w->count() > 0) {
      summary_.worst_window_p99 = std::max(summary_.worst_window_p99, p99);
    }
    if (i > 0) row += ",";
    row += "\"";
    row += JsonEscape(registry_.windows_[i].name);
    row += "\":{\"count\":";
    row += JsonInt(w->count());
    row += ",\"p50\":";
    row += JsonDouble(p50);
    row += ",\"p99\":";
    row += JsonDouble(p99);
    row += "}";
    w->Reset();
  }
  row += "}}";

  rows_.push_back({t, std::move(row)});
  last_row_time_ = t;
  ++summary_.samples;
}

void TimelineSampler::SampleUpTo(double t) {
  if (finished_) return;
  while (next_due_ <= t) {
    EmitRow(next_due_);
    next_due_ += config_.interval_seconds;
  }
}

std::string TimelineSampler::RenderSummary() const {
  std::string out = "{\"kind\":\"summary\"";
  out += ",\"timeline_samples\":" + JsonInt(summary_.samples);
  out += ",\"peak_queue_depth\":" + JsonDouble(summary_.peak_queue_depth);
  out += ",\"worst_window_p99\":" + JsonDouble(summary_.worst_window_p99);
  out += ",\"final_counters\":{";
  for (size_t i = 0; i < registry_.counters_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"";
    out += JsonEscape(registry_.counters_[i].name);
    out += "\":";
    out += JsonInt(summary_.final_counters[i]);
  }
  out += "}}";
  return out;
}

Status TimelineSampler::FinishAt(double end_time) {
  TJ_CHECK(!finished_) << "TimelineSampler::FinishAt called twice";
  SampleUpTo(end_time);
  // Always close with a row at the run's exact end time so the final
  // cumulative counters line up with the whole-run totals in results
  // JSON (timeline_check.py asserts this identity).
  if (last_row_time_ < end_time) EmitRow(end_time);
  finished_ = true;

  summary_.final_counters = prev_counters_;
  summary_json_ = RenderSummary();

  if (config_.buffer_only || config_.out.empty()) return Status::Ok();
  return WriteTextFile(config_.out, RenderJsonl());
}

std::string TimelineSampler::RenderJsonl() const {
  std::string out = header_json_ + "\n";
  for (const Row& row : rows_) {
    out += row.json;
    out += "\n";
  }
  out += summary_json_ + "\n";
  return out;
}

}  // namespace obs
}  // namespace tapejuke
