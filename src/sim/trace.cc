#include "sim/trace.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace tapejuke {

Status SaveTrace(const std::string& path,
                 const std::vector<TraceRecord>& records) {
  std::ofstream out(path);
  if (!out) {
    return Status::InvalidArgument("cannot open '" + path + "' for writing");
  }
  out << "arrival_seconds,block\n";
  out.precision(9);
  for (const TraceRecord& record : records) {
    out << record.arrival_seconds << "," << record.block << "\n";
  }
  out.flush();
  if (!out) return Status::Internal("write to '" + path + "' failed");
  return Status::Ok();
}

StatusOr<std::vector<TraceRecord>> LoadTrace(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot open trace '" + path + "'");
  }
  std::vector<TraceRecord> records;
  std::string line;
  bool first = true;
  double previous = 0;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (line.empty()) continue;
    if (first) {
      first = false;
      if (line == "arrival_seconds,block") continue;  // header optional
    }
    const size_t comma = line.find(',');
    if (comma == std::string::npos) {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(line_number) +
                                     ": expected 'time,block'");
    }
    char* end = nullptr;
    TraceRecord record;
    record.arrival_seconds = std::strtod(line.c_str(), &end);
    if (end != line.c_str() + comma) {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(line_number) +
                                     ": bad arrival time");
    }
    const std::string block_text = line.substr(comma + 1);
    record.block = std::strtoll(block_text.c_str(), &end, 10);
    if (end == block_text.c_str() || *end != '\0' || record.block < 0) {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(line_number) +
                                     ": bad block id");
    }
    if (record.arrival_seconds < previous) {
      return Status::InvalidArgument("trace line " +
                                     std::to_string(line_number) +
                                     ": arrivals out of order");
    }
    previous = record.arrival_seconds;
    records.push_back(record);
  }
  return records;
}

std::vector<TraceRecord> SynthesizeTrace(const Catalog& catalog,
                                         const WorkloadConfig& config,
                                         double duration_seconds) {
  WorkloadConfig open_config = config;
  open_config.model = QueuingModel::kOpen;
  WorkloadGenerator generator(&catalog, open_config);
  std::vector<TraceRecord> records;
  double now = generator.NextInterarrival();
  while (now <= duration_seconds) {
    records.push_back(TraceRecord{now, generator.NextBlock()});
    now += generator.NextInterarrival();
  }
  return records;
}

StatusOr<std::vector<Request>> TraceToRequests(
    const Catalog& catalog, const std::vector<TraceRecord>& records) {
  std::vector<Request> requests;
  requests.reserve(records.size());
  for (const TraceRecord& record : records) {
    if (record.block < 0 || record.block >= catalog.num_blocks()) {
      return Status::InvalidArgument(
          "trace references unknown block " + std::to_string(record.block) +
          " (the layout has " + std::to_string(catalog.num_blocks()) +
          " blocks)");
    }
    requests.push_back(Request{-1, record.block, record.arrival_seconds});
  }
  return requests;
}

}  // namespace tapejuke
