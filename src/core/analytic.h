// Closed-form performance model for the closed-queuing round-robin
// scheduler (extension).
//
// A companion to the simulator: predicts steady-state throughput and mean
// delay from first principles, so simulation results can be sanity-checked
// and rough capacity planning done without running anything.
//
// Model. In a closed system with population Q and round-robin tape
// selection, each cycle visits every tape once and serves every
// outstanding request exactly once (requests regenerate onto a random tape
// after completion), so the expected batch on tape t is Q * p_t with p_t
// the probability a request lands on t. One visit costs
//
//   switch (rewind from the previous sweep's end + eject + robot + load)
//   + sweep(b_t): b_t block reads plus forward locates covering the
//     span of the requested positions.
//
// The expected forward span of b draws from the per-tape position
// distribution F is E[max] = integral of (1 - F(x)^b); F is piecewise
// uniform (cold mass around a hot region of RH mass at start position SP).
// Throughput follows as X = Q / cycle_time and, by Little's law (zero
// think time), mean delay R = Q / X.
//
// The model targets the *static round-robin* algorithm (no on-the-fly
// insertions) without replication; the bench (ext_analytic) quantifies its
// accuracy against the simulator — within ~8% across moderate workloads.
// Known limitation: it charges one read per request, so it underpredicts
// throughput when many requests collide on the same hot block (very high
// skew at very long queues), where the simulator shares one read among
// them.

#ifndef TAPEJUKE_CORE_ANALYTIC_H_
#define TAPEJUKE_CORE_ANALYTIC_H_

#include "layout/placement.h"
#include "tape/jukebox.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

/// Inputs to the closed-form model.
struct AnalyticInputs {
  JukeboxConfig jukebox;
  LayoutSpec layout;  ///< num_replicas must be 0
  double hot_request_fraction = 0.40;
  int64_t queue_length = 60;

  /// One row per field of its own (util/fields.h).
  std::vector<Field> Fields();
  Status Validate() const;
};

/// Closed-form prediction.
struct AnalyticPrediction {
  double cycle_seconds = 0;        ///< one full round-robin pass
  double throughput_req_per_min = 0;
  double mean_delay_minutes = 0;   ///< Q / X by Little's law
  double mean_batch_per_visit = 0;
  double mean_span_mb = 0;         ///< expected forward span per sweep
};

/// Evaluates the model. Fails on replicated layouts (the batching algebra
/// assumes one copy per block).
StatusOr<AnalyticPrediction> PredictRoundRobin(const AnalyticInputs& inputs);

/// Expected maximum of `batch` i.i.d. draws from the per-tape position
/// distribution implied by (layout, RH) — the forward span one sweep must
/// traverse. Exposed for tests. `tape` selects the tape (only meaningful
/// for vertical layouts, where tape 0 is the hot tape).
double ExpectedSweepSpanMb(const AnalyticInputs& inputs, TapeId tape,
                           double batch);

}  // namespace tapejuke

#endif  // TAPEJUKE_CORE_ANALYTIC_H_
