#include "core/results_io.h"

namespace tapejuke {

void WriteJson(JsonWriter* w, const JukeboxConfig& config) {
  WriteObject(w, FieldsOf(config));
}

void WriteJson(JsonWriter* w, const LayoutSpec& layout) {
  WriteObject(w, FieldsOf(layout));
}

void WriteJson(JsonWriter* w, const WorkloadConfig& workload) {
  WriteObject(w, FieldsOf(workload));
}

void WriteJson(JsonWriter* w, const FaultConfig& faults) {
  WriteObject(w, FieldsOf(faults));
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
  WriteObject(w, FieldsOf(repair));
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
  WriteFields(w, FieldsOf(sim));
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
    WriteObject(w, FieldsOf(sim.admission));
  }
  w->EndObject();
}

void WriteJson(JsonWriter* w, const ExperimentConfig& config) {
  w->BeginObject();
  w->Field("algorithm", config.algorithm.Name());
  w->Key("algorithm_options");
  WriteObject(w, FieldsOf(config.algorithm.options));
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
  WriteFields(w, FieldsOf(config));
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
