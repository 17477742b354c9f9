#include "core/farm.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "core/sweep_runner.h"
#include "obs/timeline.h"
#include "sim/simulator.h"
#include "sim/workload.h"
#include "util/check.h"
#include "util/json.h"

namespace tapejuke {

namespace {

/// "dir/farm.jsonl" + box 2 -> "dir/farm.box2.jsonl" (appends when the
/// base name has no extension).
std::string BoxTimelinePath(const std::string& base, int32_t box) {
  const size_t slash = base.find_last_of('/');
  const size_t dot = base.find_last_of('.');
  const std::string tag = ".box" + std::to_string(box);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + tag;
  }
  return base.substr(0, dot) + tag + base.substr(dot);
}

}  // namespace

std::vector<Field> FarmConfig::Fields() {
  return {
      {"num_jukeboxes", &num_jukeboxes, AtLeast(1)},
      // Written under its old key; per_jukebox.Validate checks it.
      {"drives_per_jukebox", &per_jukebox.jukebox.num_drives},
      // An execution knob: results are bit-identical at any value, so it
      // is not written and results files match across thread counts.
      {"threads", &threads, {}, {}, false},
  };
}

Status FarmConfig::Validate() const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
  const WorkloadConfig& workload = per_jukebox.sim.workload;
  if (workload.model == QueuingModel::kClosed &&
      workload.queue_length < num_jukeboxes) {
    return Status::InvalidArgument(
        "closed farm needs queue_length >= num_jukeboxes (the fixed split "
        "runs at least one process per box)");
  }
  if (workload.model == QueuingModel::kOpen &&
      !std::isfinite(workload.mean_interarrival_seconds * num_jukeboxes)) {
    return Status::InvalidArgument(
        "open farm needs a finite per-box interarrival time "
        "(mean_interarrival_seconds x num_jukeboxes)");
  }
  if (drives_per_jukebox.has_value() &&
      *drives_per_jukebox != per_jukebox.jukebox.num_drives) {
    return Status::InvalidArgument(
        "drives_per_jukebox must equal per_jukebox.jukebox.num_drives");
  }
  if (per_jukebox.sim.writes.has_value() ||
      per_jukebox.sim.lifecycle.has_value()) {
    return Status::InvalidArgument(
        "a farm box runs without the write path or the replica fill");
  }
  return per_jukebox.Validate();
}

/// Everything the merge needs from one finished box, decoupled from the
/// (non-copyable, arena-heavy) simulator that produced it.
struct FarmSimulator::BoxOutput {
  SimulationResult result;
  MetricsCollector metrics;
  JukeboxCounters counters;
  /// Buffered timeline capture (empty unless the farm timeline is on).
  /// Boxes run with buffer_only so the farm can write per-box files plus
  /// one merged, fixed-order farm timeline after the parallel phase. The
  /// initializers let RunBox brace-initialize the three fields above.
  std::string timeline_header{};
  std::vector<obs::TimelineSampler::Row> timeline_rows{};
  std::string timeline_summary_json{};
  obs::TimelineSummary timeline_summary{};
  std::vector<std::string> timeline_counter_names{};

  void CaptureTimeline(const Simulator& sim) {
    const obs::TimelineSampler* timeline = sim.timeline();
    if (timeline == nullptr) return;
    timeline_header = timeline->header_json();
    timeline_rows = timeline->rows();
    timeline_summary_json = timeline->summary_json();
    timeline_summary = timeline->summary();
    timeline_counter_names = timeline->counter_names();
  }
};

FarmSimulator::FarmSimulator(const FarmConfig& config) : config_(config) {
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
}

ExperimentConfig FarmSimulator::BoxConfig(int32_t index) const {
  ExperimentConfig cfg = config_.per_jukebox;
  if (cfg.sim.timeline.enabled()) {
    // Boxes buffer their rows (stamped with the box index) instead of
    // writing; the farm writes per-box and merged files after the run.
    cfg.sim.timeline.buffer_only = true;
    cfg.sim.timeline.box = index;
    cfg.sim.timeline.out.clear();
  }
  WorkloadConfig& workload = cfg.sim.workload;
  const int64_t n = config_.num_jukeboxes;
  if (workload.model == QueuingModel::kClosed) {
    // Fixed split of the farm-wide population: floor(Q/n) per box, +1 for
    // the first Q mod n boxes (Validate guarantees >= 1 each).
    const int64_t base = workload.queue_length / n;
    const int64_t remainder = workload.queue_length % n;
    workload.queue_length = base + (index < remainder ? 1 : 0);
  } else {
    // Poisson thinning: uniform routing over n boxes == n independent
    // Poisson streams at 1/n the rate each.
    workload.mean_interarrival_seconds *= static_cast<double>(n);
  }
  workload.seed =
      DerivePointSeed(workload.seed, static_cast<uint64_t>(index));
  return cfg;
}

FarmSimulator::BoxOutput FarmSimulator::RunBox(int32_t index) const {
  const ExperimentConfig cfg = BoxConfig(index);
  Jukebox jukebox(cfg.jukebox);
  StatusOr<Catalog> catalog = LayoutBuilder::Build(&jukebox, cfg.layout);
  TJ_CHECK(catalog.ok()) << catalog.status().ToString();
  const std::unique_ptr<Scheduler> scheduler =
      CreateScheduler(cfg.algorithm, &jukebox, &catalog.value());
  Simulator sim(&jukebox, &catalog.value(), scheduler.get(), cfg.sim);
  SimulationResult result = sim.Run();
  BoxOutput out{std::move(result), sim.metrics(), jukebox.counters()};
  out.CaptureTimeline(sim);
  return out;
}

FarmResult FarmSimulator::Run() {
  TJ_CHECK(!ran_) << "Run may be called once";
  ran_ = true;
  const int32_t n = config_.num_jukeboxes;

  // Shard the boxes like sweep points. Every box derives its whole random
  // state from its own index, and the merge below walks the slots in box
  // order, so the result is bit-identical at any thread count.
  std::vector<std::unique_ptr<BoxOutput>> outputs(static_cast<size_t>(n));
  SweepOptions shards;
  shards.threads = config_.threads;
  const Status status = SweepRunner(shards).RunIndexed(
      static_cast<size_t>(n), [&](size_t i) {
        outputs[i] =
            std::make_unique<BoxOutput>(RunBox(static_cast<int32_t>(i)));
        return Status::Ok();
      });
  TJ_CHECK(status.ok()) << status.ToString();

  // The farm ends when its last box does; close every box's outstanding
  // integral there so the areas are comparable before merging.
  double farm_end = 0;
  for (const auto& out : outputs) {
    farm_end = std::max(farm_end, out->result.simulated_seconds);
  }
  JukeboxCounters total;
  for (const auto& out : outputs) {
    out->metrics.AccumulateTo(farm_end);
    const JukeboxCounters& c = out->counters;
    total.tape_switches += c.tape_switches;
    total.blocks_read += c.blocks_read;
    total.mb_read += c.mb_read;
    total.rewind_seconds += c.rewind_seconds;
    total.switch_seconds += c.switch_seconds;
    total.locate_seconds += c.locate_seconds;
    total.read_seconds += c.read_seconds;
  }
  MetricsCollector aggregate = outputs.front()->metrics;
  for (int32_t i = 1; i < n; ++i) aggregate.Merge(outputs[i]->metrics);

  FarmResult result;
  result.aggregate = aggregate.Finalize(farm_end, total);

  // Claim-conflict, fault and repair counters live in the per-box
  // SimulationResults (the collectors only see arrivals/completions); fold
  // them in by hand.
  bool any_faults = false;
  bool any_repair = false;
  double live_fraction_sum = 0;
  for (const auto& out : outputs) {
    const SimulationResult& r = out->result;
    live_fraction_sum += r.live_replica_fraction;
    result.aggregate.claim_conflicts += r.claim_conflicts;
    if (r.fault_injection) {
      any_faults = true;
      result.aggregate.faults += r.faults;
    }
    if (r.repair_enabled) {
      any_repair = true;
      RepairStats& agg = result.aggregate.repair;
      agg.scrub_passes += r.repair.scrub_passes;
      agg.scrub_mounts += r.repair.scrub_mounts;
      agg.scrub_blocks_read += r.repair.scrub_blocks_read;
      agg.scrub_errors_detected += r.repair.scrub_errors_detected;
      agg.scrub_seconds += r.repair.scrub_seconds;
      agg.repairs_enqueued += r.repair.repairs_enqueued;
      agg.repairs_completed += r.repair.repairs_completed;
      agg.repairs_abandoned += r.repair.repairs_abandoned;
      agg.repairs_impossible += r.repair.repairs_impossible;
      agg.source_reads += r.repair.source_reads;
      agg.repair_mounts += r.repair.repair_mounts;
      agg.repair_write_seconds += r.repair.repair_write_seconds;
      // Summed per-box peaks: an upper bound on the true farm-wide peak
      // (box backlogs need not peak simultaneously).
      agg.backlog_peak += r.repair.backlog_peak;
      agg.backlog_final += r.repair.backlog_final;
      agg.reprotect_seconds_sum += r.repair.reprotect_seconds_sum;
      agg.reprotect_seconds_max = std::max(agg.reprotect_seconds_max,
                                           r.repair.reprotect_seconds_max);
    }
  }
  result.aggregate.fault_injection = any_faults;
  result.aggregate.repair_enabled = any_repair;
  if (any_faults) {
    result.aggregate.live_replica_fraction =
        live_fraction_sum / static_cast<double>(n);
  }

  const double measured = result.aggregate.measured_seconds;
  result.completions_per_jukebox.reserve(static_cast<size_t>(n));
  result.mean_outstanding_per_jukebox.reserve(static_cast<size_t>(n));
  for (const auto& out : outputs) {
    result.completions_per_jukebox.push_back(out->metrics.completed_total());
    result.mean_outstanding_per_jukebox.push_back(
        measured > 0 ? out->metrics.outstanding_area() / measured : 0.0);
  }

  WriteTimelines(outputs);
  return result;
}

void FarmSimulator::WriteTimelines(
    const std::vector<std::unique_ptr<BoxOutput>>& outputs) const {
  const obs::TimelineConfig& timeline = config_.per_jukebox.sim.timeline;
  if (!timeline.enabled() || timeline.out.empty()) return;
  const int32_t n = config_.num_jukeboxes;

  const auto warn = [](const Status& status) {
    // Timeline output must never fail the run.
    if (!status.ok()) {
      std::cerr << "warning: timeline output failed: " << status.ToString()
                << '\n';
    }
  };

  // Per-box documents, exactly as a standalone run would have written
  // them (rows carry the box index).
  for (int32_t i = 0; i < n; ++i) {
    const BoxOutput& box = *outputs[static_cast<size_t>(i)];
    std::string doc = box.timeline_header + "\n";
    for (const obs::TimelineSampler::Row& row : box.timeline_rows) {
      doc += row.json;
      doc += "\n";
    }
    doc += box.timeline_summary_json + "\n";
    warn(WriteTextFile(BoxTimelinePath(timeline.out, i), doc));
  }

  // Merged farm timeline: every box's rows interleaved in simulated-time
  // order. Rows are concatenated in box order first and the sort is
  // stable, so equal-time rows keep box order and the document is
  // byte-identical at any thread count.
  struct MergedRow {
    double t;
    const std::string* json;
  };
  std::vector<MergedRow> merged;
  for (const auto& out : outputs) {
    for (const obs::TimelineSampler::Row& row : out->timeline_rows) {
      merged.push_back({row.t, &row.json});
    }
  }
  std::stable_sort(merged.begin(), merged.end(),
                   [](const MergedRow& a, const MergedRow& b) {
                     return a.t < b.t;
                   });

  // Farm summary: samples and final counters sum across boxes; the peaks
  // are per-box maxima (box queues need not peak simultaneously).
  obs::TimelineSummary farm;
  for (const auto& out : outputs) {
    const obs::TimelineSummary& s = out->timeline_summary;
    farm.samples += s.samples;
    farm.peak_queue_depth =
        std::max(farm.peak_queue_depth, s.peak_queue_depth);
    farm.worst_window_p99 =
        std::max(farm.worst_window_p99, s.worst_window_p99);
    if (farm.final_counters.empty()) {
      farm.final_counters = s.final_counters;
    } else {
      TJ_CHECK_EQ(farm.final_counters.size(), s.final_counters.size());
      for (size_t c = 0; c < s.final_counters.size(); ++c) {
        farm.final_counters[c] += s.final_counters[c];
      }
    }
  }
  const std::vector<std::string>& names =
      outputs.front()->timeline_counter_names;
  std::string summary = "{\"kind\":\"summary\",\"boxes\":" +
                        std::to_string(n) + ",\"timeline_samples\":" +
                        std::to_string(farm.samples) +
                        ",\"peak_queue_depth\":" +
                        JsonDouble(farm.peak_queue_depth) +
                        ",\"worst_window_p99\":" +
                        JsonDouble(farm.worst_window_p99) +
                        ",\"final_counters\":{";
  for (size_t c = 0; c < names.size(); ++c) {
    if (c > 0) summary += ",";
    summary += "\"";
    summary += JsonEscape(names[c]);
    summary += "\":";
    summary += std::to_string(farm.final_counters[c]);
  }
  summary += "}}";

  std::string doc = outputs.front()->timeline_header + "\n";
  for (const MergedRow& row : merged) {
    doc += *row.json;
    doc += "\n";
  }
  doc += summary + "\n";
  warn(WriteTextFile(timeline.out, doc));
}

}  // namespace tapejuke
