#include "core/results_io.h"

#include "util/check.h"

namespace tapejuke {

namespace {

const char* LayoutName(HotLayout layout) {
  return layout == HotLayout::kVertical ? "vertical" : "horizontal";
}

const char* PlacementName(PlacementScheme scheme) {
  return scheme == PlacementScheme::kOrganPipe ? "organ-pipe"
                                               : "start-position";
}

const char* ModelName(QueuingModel model) {
  return model == QueuingModel::kOpen ? "open" : "closed";
}

const char* SkewName(SkewModel skew) {
  return skew == SkewModel::kZipf ? "zipf" : "hot-cold";
}

const char* AdmissionPolicyName(AdmissionPolicy policy) {
  switch (policy) {
    case AdmissionPolicy::kNone:
      return "none";
    case AdmissionPolicy::kStaticCap:
      return "static-cap";
    case AdmissionPolicy::kAdaptive:
      return "adaptive";
  }
  TJ_CHECK(false) << "unknown AdmissionPolicy";
  return "?";
}

}  // namespace

void WriteJson(JsonWriter* w, const JukeboxConfig& config) {
  w->BeginObject();
  w->Field("num_tapes", static_cast<int64_t>(config.num_tapes));
  w->Field("block_size_mb", config.block_size_mb);
  w->Field("tape_capacity_mb", config.timing.tape_capacity_mb);
  w->Field("rewind_before_eject", config.rewind_before_eject);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const LayoutSpec& layout) {
  w->BeginObject();
  w->Field("hot_fraction", layout.hot_fraction);
  w->Field("num_replicas", static_cast<int64_t>(layout.num_replicas));
  w->Field("start_position", layout.start_position);
  w->Field("layout", LayoutName(layout.layout));
  w->Field("placement", PlacementName(layout.placement));
  w->Field("logical_blocks_override", layout.logical_blocks_override);
  w->Field("pack_cold", layout.pack_cold);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const WorkloadConfig& workload) {
  w->BeginObject();
  w->Field("model", ModelName(workload.model));
  w->Field("queue_length", workload.queue_length);
  w->Field("think_time_seconds", workload.think_time_seconds);
  w->Field("mean_interarrival_seconds",
           workload.mean_interarrival_seconds);
  w->Field("skew", SkewName(workload.skew));
  w->Field("hot_request_fraction", workload.hot_request_fraction);
  w->Field("zipf_theta", workload.zipf_theta);
  w->Field("seed", workload.seed);
  // Tenant-mix and arrival-shaping knobs are emitted only when set, so
  // documents for overload-free workloads stay byte-identical to
  // pre-overload-subsystem output.
  if (workload.HasTenantClasses()) {
    w->Key("tenant_classes");
    w->BeginArray();
    for (const TenantClassConfig& cls : workload.tenant_classes) {
      w->BeginObject();
      w->Field("weight", cls.weight);
      w->Field("deadline_seconds", cls.deadline_seconds);
      w->Field("p99_slo_seconds", cls.p99_slo_seconds);
      w->EndObject();
    }
    w->EndArray();
  }
  if (workload.diurnal_amplitude > 0) {
    w->Field("diurnal_amplitude", workload.diurnal_amplitude);
    w->Field("diurnal_period_seconds", workload.diurnal_period_seconds);
  }
  if (workload.burst_interval_seconds > 0) {
    w->Field("burst_interval_seconds", workload.burst_interval_seconds);
    w->Field("burst_size", workload.burst_size);
    w->Field("burst_spread_seconds", workload.burst_spread_seconds);
  }
  w->EndObject();
}

void WriteJson(JsonWriter* w, const FaultConfig& faults) {
  w->BeginObject();
  w->Field("transient_read_error_prob", faults.transient_read_error_prob);
  w->Field("max_read_retries",
           static_cast<int64_t>(faults.max_read_retries));
  w->Field("permanent_media_error_prob", faults.permanent_media_error_prob);
  w->Field("whole_tape_fraction", faults.whole_tape_fraction);
  w->Field("drive_mtbf_seconds", faults.drive_mtbf_seconds);
  w->Field("drive_mttr_seconds", faults.drive_mttr_seconds);
  w->Field("robot_fault_prob", faults.robot_fault_prob);
  // Backoff knobs appear only when enabled, keeping documents for
  // backoff-free fault runs byte-identical to earlier output.
  if (faults.retry_backoff_base_seconds > 0) {
    w->Field("retry_backoff_base_seconds", faults.retry_backoff_base_seconds);
    w->Field("retry_backoff_max_seconds", faults.retry_backoff_max_seconds);
  }
  w->Field("seed", faults.seed);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const FaultStats& stats) {
  w->BeginObject();
  w->Field("transient_read_errors", stats.transient_read_errors);
  w->Field("read_retries", stats.read_retries);
  w->Field("reads_escalated", stats.reads_escalated);
  w->Field("permanent_media_errors", stats.permanent_media_errors);
  w->Field("dead_tapes", stats.dead_tapes);
  w->Field("replicas_masked", stats.replicas_masked);
  w->Field("drive_failures", stats.drive_failures);
  w->Field("drive_repair_seconds", stats.drive_repair_seconds);
  w->Field("robot_faults", stats.robot_faults);
  w->Field("robot_retry_seconds", stats.robot_retry_seconds);
  w->Field("failovers", stats.failovers);
  w->Field("degraded_reads", stats.degraded_reads);
  w->Field("blocks_lost", stats.blocks_lost);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const RepairConfig& repair) {
  w->BeginObject();
  w->Field("enable_repair", repair.enable_repair);
  w->Field("scrub_interval_seconds", repair.scrub_interval_seconds);
  w->Field("repair_bandwidth_mb_per_s", repair.repair_bandwidth_mb_per_s);
  w->Field("repair_burst_mb", repair.repair_burst_mb);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const RepairStats& stats) {
  w->BeginObject();
  w->Field("scrub_passes", stats.scrub_passes);
  w->Field("scrub_mounts", stats.scrub_mounts);
  w->Field("scrub_blocks_read", stats.scrub_blocks_read);
  w->Field("scrub_errors_detected", stats.scrub_errors_detected);
  w->Field("scrub_seconds", stats.scrub_seconds);
  w->Field("repairs_enqueued", stats.repairs_enqueued);
  w->Field("repairs_completed", stats.repairs_completed);
  w->Field("repairs_abandoned", stats.repairs_abandoned);
  w->Field("repairs_impossible", stats.repairs_impossible);
  w->Field("source_reads", stats.source_reads);
  w->Field("repair_mounts", stats.repair_mounts);
  w->Field("repair_write_seconds", stats.repair_write_seconds);
  w->Field("backlog_peak", stats.backlog_peak);
  w->Field("backlog_final", stats.backlog_final);
  w->Field("reprotect_seconds_sum", stats.reprotect_seconds_sum);
  w->Field("reprotect_seconds_max", stats.reprotect_seconds_max);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const SimulationConfig& sim) {
  w->BeginObject();
  w->Field("duration_seconds", sim.duration_seconds);
  w->Field("warmup_seconds", sim.warmup_seconds);
  w->Key("workload");
  WriteJson(w, sim.workload);
  // Emitted only when fault injection is on, so fault-free documents stay
  // byte-identical to pre-fault-subsystem output.
  if (sim.faults.enabled()) {
    w->Key("faults");
    WriteJson(w, sim.faults);
  }
  if (sim.repair.enabled()) {
    w->Key("repair");
    WriteJson(w, sim.repair);
  }
  if (sim.admission.enabled()) {
    w->Key("admission");
    w->BeginObject();
    w->Field("policy", AdmissionPolicyName(sim.admission.policy));
    w->Field("queue_cap", sim.admission.queue_cap);
    w->Field("window_seconds", sim.admission.window_seconds);
    w->EndObject();
  }
  w->EndObject();
}

void WriteJson(JsonWriter* w, const ExperimentConfig& config) {
  w->BeginObject();
  w->Field("algorithm", config.algorithm.Name());
  w->Key("algorithm_options");
  w->BeginObject();
  w->Field("allow_reverse_phase", config.algorithm.options.allow_reverse_phase);
  w->Field("envelope_shrink", config.algorithm.options.envelope_shrink);
  w->Field("paper_replica_tiebreak",
           config.algorithm.options.paper_replica_tiebreak);
  w->EndObject();
  w->Key("jukebox");
  WriteJson(w, config.jukebox);
  w->Key("layout");
  WriteJson(w, config.layout);
  w->Key("sim");
  WriteJson(w, config.sim);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const JukeboxCounters& counters) {
  w->BeginObject();
  w->Field("tape_switches", counters.tape_switches);
  w->Field("blocks_read", counters.blocks_read);
  w->Field("mb_read", counters.mb_read);
  w->Field("rewind_seconds", counters.rewind_seconds);
  w->Field("switch_seconds", counters.switch_seconds);
  w->Field("locate_seconds", counters.locate_seconds);
  w->Field("read_seconds", counters.read_seconds);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const SimulationResult& result) {
  w->BeginObject();
  w->Field("simulated_seconds", result.simulated_seconds);
  w->Field("measured_seconds", result.measured_seconds);
  w->Field("completed_requests", result.completed_requests);
  w->Field("throughput_mb_per_s", result.throughput_mb_per_s);
  w->Field("throughput_kb_per_s", result.throughput_kb_per_s);
  w->Field("requests_per_minute", result.requests_per_minute);
  w->Field("mean_delay_seconds", result.mean_delay_seconds);
  w->Field("mean_delay_minutes", result.mean_delay_minutes);
  w->Field("delay_stddev_seconds", result.delay_stddev_seconds);
  w->Field("p50_delay_seconds", result.p50_delay_seconds);
  w->Field("p95_delay_seconds", result.p95_delay_seconds);
  w->Field("p99_delay_seconds", result.p99_delay_seconds);
  w->Field("max_delay_seconds", result.max_delay_seconds);
  w->Field("delay_hist_overflow", result.delay_hist_overflow);
  w->Field("mean_outstanding", result.mean_outstanding);
  w->Field("tape_switches_per_hour", result.tape_switches_per_hour);
  w->Field("transfer_utilization", result.transfer_utilization);
  // Time-in-state block: present only when the run collected per-drive
  // accounting (any Simulator run; farm/lifecycle paths leave it
  // empty).
  if (!result.time_in_state.empty()) {
    w->Field("drive_utilization", result.drive_utilization);
    w->Key("time_in_state");
    w->BeginArray();
    for (const obs::DriveTimeInState& tis : result.time_in_state) {
      w->BeginObject();
      for (int a = 0; a < obs::kNumDriveActivities; ++a) {
        w->Field(obs::DriveActivityName(
                     static_cast<obs::DriveActivity>(a)),
                 tis.seconds[static_cast<size_t>(a)]);
      }
      w->EndObject();
    }
    w->EndArray();
  }
  w->Key("counters");
  WriteJson(w, result.counters);
  // Fault-injection block: emitted only for runs that had faults enabled,
  // keeping fault-free documents byte-identical to pre-fault output.
  if (result.fault_injection) {
    w->Field("issued_requests", result.issued_requests);
    w->Field("completed_total", result.completed_total);
    w->Field("failed_requests", result.failed_requests);
    w->Field("outstanding_at_end", result.outstanding_at_end);
    w->Field("availability", result.availability);
    w->Field("live_replica_fraction", result.live_replica_fraction);
    w->Key("faults");
    WriteJson(w, result.faults);
  }
  // Overload block: emitted only for runs that used deadlines, tenant
  // classes, or admission control. The conservation quad is shared with
  // the fault block, so it is repeated here only when faults were off.
  if (result.overload_enabled) {
    if (!result.fault_injection) {
      w->Field("issued_requests", result.issued_requests);
      w->Field("completed_total", result.completed_total);
      w->Field("failed_requests", result.failed_requests);
      w->Field("outstanding_at_end", result.outstanding_at_end);
    }
    w->Field("expired_requests", result.expired_requests);
    w->Field("shed_requests", result.shed_requests);
    if (!result.tenant_classes.empty()) {
      w->Key("tenant_classes");
      w->BeginArray();
      for (const TenantClassResult& cls : result.tenant_classes) {
        w->BeginObject();
        w->Field("completed", cls.completed);
        w->Field("expired", cls.expired);
        w->Field("shed", cls.shed);
        w->Field("mean_delay_seconds", cls.mean_delay_seconds);
        w->Field("p99_delay_seconds", cls.p99_delay_seconds);
        w->Field("goodput_per_minute", cls.goodput_per_minute);
        w->EndObject();
      }
      w->EndArray();
    }
  }
  if (result.repair_enabled) {
    w->Key("repair");
    WriteJson(w, result.repair);
  }
  w->EndObject();
}

void WriteJson(JsonWriter* w, const LayoutStats& stats) {
  w->BeginObject();
  w->Field("logical_blocks", stats.logical_blocks);
  w->Field("hot_blocks", stats.hot_blocks);
  w->Field("cold_blocks", stats.cold_blocks);
  w->Field("total_copies", stats.total_copies);
  w->Field("used_slots", stats.used_slots);
  w->Field("total_slots", stats.total_slots);
  w->Field("measured_expansion", stats.measured_expansion);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const ExperimentResult& result) {
  w->BeginObject();
  w->Field("algorithm", result.algorithm_name);
  w->Key("sim");
  WriteJson(w, result.sim);
  w->Key("layout");
  WriteJson(w, result.layout);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const FarmConfig& config) {
  w->BeginObject();
  w->Field("num_jukeboxes", static_cast<int64_t>(config.num_jukeboxes));
  w->Field("drives_per_jukebox",
           static_cast<int64_t>(config.drives_per_jukebox));
  // config.threads is an execution knob (results are bit-identical at any
  // value) and is deliberately not serialized, so results files stay
  // byte-identical across thread counts.
  w->Key("per_jukebox");
  WriteJson(w, config.per_jukebox);
  w->EndObject();
}

void WriteJson(JsonWriter* w, const FarmResult& result) {
  w->BeginObject();
  w->Key("aggregate");
  WriteJson(w, result.aggregate);
  w->Key("completions_per_jukebox");
  w->BeginArray();
  for (const int64_t completions : result.completions_per_jukebox) {
    w->Value(completions);
  }
  w->EndArray();
  w->Key("mean_outstanding_per_jukebox");
  w->BeginArray();
  for (const double outstanding : result.mean_outstanding_per_jukebox) {
    w->Value(outstanding);
  }
  w->EndArray();
  w->EndObject();
}

void WriteJson(JsonWriter* w, const Table& table) {
  w->BeginObject();
  w->Key("columns");
  w->BeginArray();
  for (const std::string& header : table.headers()) w->Value(header);
  w->EndArray();
  w->Key("rows");
  w->BeginArray();
  for (const std::vector<Table::Cell>& row : table.rows()) {
    w->BeginArray();
    for (const Table::Cell& cell : row) {
      if (const auto* s = std::get_if<std::string>(&cell)) {
        w->Value(*s);
      } else if (const auto* d = std::get_if<double>(&cell)) {
        w->Value(*d);
      } else {
        w->Value(std::get<int64_t>(cell));
      }
    }
    w->EndArray();
  }
  w->EndArray();
  w->EndObject();
}

}  // namespace tapejuke
