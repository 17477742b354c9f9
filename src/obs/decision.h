// Scheduler decision records: what a major reschedule saw and chose.
//
// Schedulers live below the simulator and know nothing about wall or
// simulated clocks, so the hook is a push interface: a scheduler builds a
// DecisionRecord at each major reschedule and hands it to an attached
// DecisionSink (no-op when none is attached — the default, costing one
// branch per reschedule). The simulator timestamps records by calling
// TraceRecorder::SetNow before invoking the scheduler.
//
// This header deliberately uses primitive ids (tape/request counts)
// rather than sched/ types: obs sits below sched in the layering so that
// every scheduler can include it.

#ifndef TAPEJUKE_OBS_DECISION_H_
#define TAPEJUKE_OBS_DECISION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tape/types.h"

namespace tapejuke {
namespace obs {

/// One candidate tape considered during a major reschedule.
struct TapeCandidateScore {
  TapeId tape = -1;
  /// Pending requests this tape can serve.
  int64_t num_requests = 0;
  /// Estimated effective bandwidth (MB/s) of visiting this tape, 0 when
  /// the policy does not score by bandwidth.
  double bandwidth_mbps = 0.0;
  /// True if this tape holds a replica of the oldest pending request.
  bool serves_oldest = false;
};

/// Everything one major reschedule saw and decided.
struct DecisionRecord {
  /// Scheduler name ("fifo", "greedy", "envelope").
  std::string scheduler;
  /// True for a background (repair-class) reschedule of an idle drive.
  bool background = false;
  /// Which drive the decision is for (always 0 with one drive).
  int drive = 0;
  TapeId chosen = -1;   ///< tape selected for the next sweep; -1 = none
  TapeId mounted = -1;  ///< tape mounted when the decision was made
  int64_t pending = 0;  ///< client requests pending at decision time
  int64_t background_queue = 0;  ///< background requests pending
  /// Envelope bookkeeping for this decision (0 for fifo/greedy):
  /// extension rounds run and tapes rescored by the incremental kernel.
  int64_t envelope_rounds = 0;
  int64_t tapes_rescored = 0;
  std::vector<TapeCandidateScore> candidates;
};

/// Receiver for decision records. Implemented by TraceRecorder; the
/// Scheduler base class holds a nullable pointer to one.
class DecisionSink {
 public:
  virtual ~DecisionSink() = default;
  virtual void RecordDecision(const DecisionRecord& record) = 0;
};

}  // namespace obs
}  // namespace tapejuke

#endif  // TAPEJUKE_OBS_DECISION_H_
