#include "obs/recorder.h"

#include <algorithm>
#include <sstream>

#include "util/check.h"
#include "util/json.h"

namespace tapejuke {
namespace obs {

namespace {

const char* OutcomeName(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kCompleted:
      return "completed";
    case RequestOutcome::kFailed:
      return "failed";
    case RequestOutcome::kExpired:
      return "expired";
    case RequestOutcome::kShed:
      return "shed";
    case RequestOutcome::kOpenAtEnd:
      return "open-at-end";
  }
  TJ_CHECK(false) << "unknown RequestOutcome";
  return "?";
}

/// Microsecond timestamp in shortest round-trip decimal form.
std::string TraceTs(double seconds) { return JsonDouble(seconds * 1e6); }

}  // namespace

TraceRecorder::TraceRecorder(TraceConfig config)
    : config_(std::move(config)) {
  TJ_CHECK_GE(config_.sample, 1) << "--trace-sample must be >= 1";
}

void TraceRecorder::SetTopology(const std::string& process_name,
                                int num_drives) {
  TJ_CHECK_GT(num_drives, 0);
  process_name_ = process_name;
  num_drives_ = num_drives;
}

bool TraceRecorder::SampleRequest(int64_t id) const {
  if (!trace_enabled()) return false;
  return id % config_.sample == 0;
}

void TraceRecorder::Append(Event event) {
  if (!trace_enabled()) return;
  events_.push_back(std::move(event));
}

void TraceRecorder::RequestArrived(int64_t id, BlockId block,
                                   bool background, double t) {
  if (!SampleRequest(id)) return;
  TJ_CHECK(open_requests_.emplace(id, true).second)
      << "request " << id << " arrived twice";
  Event e;
  e.ts = t;
  e.phase = 'b';
  e.tid = kRequestsTid;
  e.id = id;
  e.name = background ? "background-request" : "request";
  std::ostringstream args;
  args << "{\"block\":" << block << '}';
  e.args_json = args.str();
  Append(std::move(e));
}

void TraceRecorder::RequestScheduled(int64_t id, TapeId tape, double t) {
  if (!SampleRequest(id)) return;
  if (open_requests_.find(id) == open_requests_.end()) return;
  Event e;
  e.ts = t;
  e.phase = 'n';
  e.tid = kRequestsTid;
  e.id = id;
  e.name = "scheduled";
  std::ostringstream args;
  args << "{\"tape\":" << tape << '}';
  e.args_json = args.str();
  Append(std::move(e));
}

void TraceRecorder::RequestRetry(int64_t id, int attempt, double t) {
  if (!SampleRequest(id)) return;
  if (open_requests_.find(id) == open_requests_.end()) return;
  Event e;
  e.ts = t;
  e.phase = 'n';
  e.tid = kRequestsTid;
  e.id = id;
  e.name = "retry";
  std::ostringstream args;
  args << "{\"attempt\":" << attempt << '}';
  e.args_json = args.str();
  Append(std::move(e));
}

void TraceRecorder::RequestFailover(int64_t id, double t) {
  if (!SampleRequest(id)) return;
  if (open_requests_.find(id) == open_requests_.end()) return;
  Event e;
  e.ts = t;
  e.phase = 'n';
  e.tid = kRequestsTid;
  e.id = id;
  e.name = "failover";
  Append(std::move(e));
}

void TraceRecorder::RequestDone(int64_t id, RequestOutcome outcome,
                                double t) {
  if (!SampleRequest(id)) return;
  const auto it = open_requests_.find(id);
  if (it == open_requests_.end()) return;
  open_requests_.erase(it);
  Event e;
  e.ts = t;
  e.phase = 'e';
  e.tid = kRequestsTid;
  e.id = id;
  e.name = "request";
  std::ostringstream args;
  args << "{\"outcome\":\"" << OutcomeName(outcome) << "\"}";
  e.args_json = args.str();
  Append(std::move(e));
}

void TraceRecorder::DriveStateSlice(int drive, DriveActivity activity,
                                    double start, double end) {
  if (!trace_enabled()) return;
  if (end <= start) return;
  Event e;
  e.ts = start;
  e.dur = end - start;
  e.phase = 'X';
  e.tid = drive + 1;
  e.name = DriveActivityName(activity);
  Append(std::move(e));
}

void TraceRecorder::Instant(const std::string& name, double t,
                            const std::string& args_json) {
  if (!trace_enabled()) return;
  Event e;
  e.ts = t;
  e.phase = 'i';
  e.tid = kSchedulerTid;
  e.name = name;
  e.args_json = args_json;
  Append(std::move(e));
}

void TraceRecorder::RecordDecision(const DecisionRecord& record) {
  ++decisions_recorded_;
  if (trace_enabled()) {
    std::ostringstream args;
    args << "{\"scheduler\":\"" << JsonEscape(record.scheduler) << '"'
         << ",\"background\":" << (record.background ? "true" : "false")
         << ",\"drive\":" << record.drive
         << ",\"chosen\":" << record.chosen
         << ",\"mounted\":" << record.mounted
         << ",\"pending\":" << record.pending
         << ",\"background_queue\":" << record.background_queue
         << ",\"envelope_rounds\":" << record.envelope_rounds
         << ",\"tapes_rescored\":" << record.tapes_rescored
         << ",\"num_candidates\":" << record.candidates.size() << '}';
    Event e;
    e.ts = now_;
    e.phase = 'i';
    e.tid = kSchedulerTid;
    e.name = "reschedule";
    e.args_json = args.str();
    Append(std::move(e));
  }
  if (!config_.decision_log.empty()) {
    std::ostringstream line;
    line << "{\"t\":" << JsonDouble(now_) << ",\"scheduler\":\""
         << JsonEscape(record.scheduler) << '"'
         << ",\"background\":" << (record.background ? "true" : "false")
         << ",\"drive\":" << record.drive
         << ",\"chosen\":" << record.chosen
         << ",\"mounted\":" << record.mounted
         << ",\"pending\":" << record.pending
         << ",\"background_queue\":" << record.background_queue
         << ",\"envelope_rounds\":" << record.envelope_rounds
         << ",\"tapes_rescored\":" << record.tapes_rescored
         << ",\"candidates\":[";
    for (size_t i = 0; i < record.candidates.size(); ++i) {
      const TapeCandidateScore& c = record.candidates[i];
      if (i > 0) line << ',';
      line << "{\"tape\":" << c.tape << ",\"requests\":" << c.num_requests
           << ",\"bandwidth_mbps\":" << JsonDouble(c.bandwidth_mbps)
           << ",\"serves_oldest\":" << (c.serves_oldest ? "true" : "false")
           << '}';
    }
    line << "]}";
    decision_lines_.push_back(line.str());
  }
}

std::string TraceRecorder::RenderTraceJson() const {
  std::ostringstream out;
  out << "{\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&out, &first](const std::string& line) {
    if (!first) out << ",\n";
    first = false;
    out << line;
  };

  // Metadata: one process per jukebox, one thread per drive plus the
  // scheduler and shared request tracks.
  {
    std::ostringstream m;
    m << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      << "\"args\":{\"name\":\"" << JsonEscape(process_name_) << "\"}}";
    emit(m.str());
  }
  for (int drive = 0; drive < num_drives_; ++drive) {
    std::ostringstream m;
    m << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << drive + 1
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"drive " << drive
      << "\"}}";
    emit(m.str());
  }
  {
    std::ostringstream m;
    m << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << kSchedulerTid
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"scheduler\"}}";
    emit(m.str());
  }
  {
    std::ostringstream m;
    m << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << kRequestsTid
      << ",\"name\":\"thread_name\",\"args\":{\"name\":\"requests\"}}";
    emit(m.str());
  }

  for (const Event& e : events_) {
    std::ostringstream line;
    line << "{\"ph\":\"" << e.phase << "\",\"pid\":1,\"tid\":" << e.tid
         << ",\"ts\":" << TraceTs(e.ts);
    if (e.phase == 'X') line << ",\"dur\":" << TraceTs(e.dur);
    if (e.phase == 'b' || e.phase == 'e' || e.phase == 'n') {
      line << ",\"cat\":\"request\",\"id\":\"" << e.id << '"';
    }
    if (e.phase == 'i') line << ",\"s\":\"t\"";
    line << ",\"name\":\"" << JsonEscape(e.name) << '"';
    if (!e.args_json.empty()) line << ",\"args\":" << e.args_json;
    line << '}';
    emit(line.str());
  }
  out << "\n],\n\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

Status TraceRecorder::Finalize(double end_time) {
  TJ_CHECK(!finalized_)
      << "TraceRecorder::Finalize called twice (it closes open spans and "
         "writes the output files, so it must run exactly once)";
  finalized_ = true;
  if (trace_enabled()) {
    // Close spans still open at the end of the run so every 'b' has a
    // matching 'e'; sorted by id for deterministic output.
    std::vector<int64_t> open;
    open.reserve(open_requests_.size());
    for (const auto& [id, unused] : open_requests_) open.push_back(id);
    std::sort(open.begin(), open.end());
    for (const int64_t id : open) {
      RequestDone(id, RequestOutcome::kOpenAtEnd, end_time);
    }
    TJ_CHECK(open_requests_.empty());

    // Events are appended roughly in clock order, but the drives' charge
    // points interleave; a stable sort by timestamp yields a
    // deterministic, monotone stream.
    std::stable_sort(
        events_.begin(), events_.end(),
        [](const Event& a, const Event& b) { return a.ts < b.ts; });
    const Status status =
        WriteTextFile(config_.trace_out, RenderTraceJson());
    if (!status.ok()) return status;
  }
  if (!config_.decision_log.empty()) {
    std::ostringstream out;
    for (const std::string& line : decision_lines_) out << line << '\n';
    const Status status = WriteTextFile(config_.decision_log, out.str());
    if (!status.ok()) return status;
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace tapejuke
