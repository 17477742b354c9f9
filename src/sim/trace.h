// Request-trace capture and replay (extension).
//
// A trace is a time-ordered list of (arrival_seconds, block) records. CSV
// on disk (header "arrival_seconds,block"), so traces can be produced or
// consumed by external tools. Synthetic traces generated from the paper's
// hot/cold workload model make replay runs byte-for-byte reproducible
// across machines and let the same request sequence be replayed against
// different layouts and schedulers (the generator-driven simulator cannot
// do that for closed queuing, where the request stream depends on service
// completions).

#ifndef TAPEJUKE_SIM_TRACE_H_
#define TAPEJUKE_SIM_TRACE_H_

#include <string>
#include <vector>

#include "layout/catalog.h"
#include "sched/request.h"
#include "sim/workload.h"
#include "util/status.h"

namespace tapejuke {

/// One trace record.
struct TraceRecord {
  double arrival_seconds = 0;
  BlockId block = kInvalidBlock;

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

/// Writes `records` as CSV. Fails if the file cannot be created.
Status SaveTrace(const std::string& path,
                 const std::vector<TraceRecord>& records);

/// Reads a CSV trace; validates ordering and well-formedness.
StatusOr<std::vector<TraceRecord>> LoadTrace(const std::string& path);

/// Generates a Poisson trace of `duration_seconds` against `catalog` using
/// the hot/cold skew and interarrival parameters of `config` (model must
/// be kOpen).
std::vector<TraceRecord> SynthesizeTrace(const Catalog& catalog,
                                         const WorkloadConfig& config,
                                         double duration_seconds);

/// Converts trace records to simulator requests (ids assigned by the
/// Simulator's trace constructor). InvalidArgument if a record names a
/// block outside `catalog`.
StatusOr<std::vector<Request>> TraceToRequests(
    const Catalog& catalog, const std::vector<TraceRecord>& records);

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_TRACE_H_
