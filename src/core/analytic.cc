#include "core/analytic.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/check.h"

namespace tapejuke {

namespace {

/// Per-tape request statistics derived from a built layout.
struct TapeDistribution {
  double request_probability = 0;  ///< p_t
  /// Block positions on this tape (ascending) with their conditional
  /// cumulative probabilities.
  std::vector<Position> positions;
  std::vector<double> cumulative;
};

std::vector<TapeDistribution> BuildDistributions(
    const AnalyticInputs& inputs) {
  Jukebox jukebox(inputs.jukebox);
  const Catalog catalog =
      LayoutBuilder::Build(&jukebox, inputs.layout).value();
  const double rh = inputs.hot_request_fraction;
  const auto hot = static_cast<double>(catalog.num_hot_blocks());
  const auto cold = static_cast<double>(catalog.num_cold_blocks());

  std::vector<TapeDistribution> tapes(
      static_cast<size_t>(jukebox.num_tapes()));
  for (TapeId t = 0; t < jukebox.num_tapes(); ++t) {
    const Tape& tape = jukebox.tape(t);
    auto& dist = tapes[static_cast<size_t>(t)];
    double mass = 0;
    std::vector<double> weights;
    for (int64_t s = 0; s < tape.num_slots(); ++s) {
      const BlockId block = tape.BlockAtSlot(s);
      if (block == kInvalidBlock) continue;
      const double weight = catalog.IsHot(block)
                                ? (hot > 0 ? rh / hot : 0.0)
                                : (cold > 0 ? (1.0 - rh) / cold : 0.0);
      if (weight <= 0) continue;
      dist.positions.push_back(tape.PositionOfSlot(s));
      weights.push_back(weight);
      mass += weight;
    }
    dist.request_probability = mass;
    double cumulative = 0;
    for (const double w : weights) {
      cumulative += w / mass;
      dist.cumulative.push_back(cumulative);
    }
  }
  return tapes;
}

/// E[max block-end position] over `batch` i.i.d. draws from `dist`.
double ExpectedSpan(const TapeDistribution& dist, double batch,
                    int64_t block_mb) {
  if (dist.positions.empty() || batch <= 0) return 0;
  double expected = 0;
  double prev_pow = 0;
  for (size_t k = 0; k < dist.positions.size(); ++k) {
    const double pow_k = std::pow(dist.cumulative[k], batch);
    expected += (pow_k - prev_pow) *
                static_cast<double>(dist.positions[k] + block_mb);
    prev_pow = pow_k;
  }
  return expected;
}

}  // namespace

std::vector<Field> AnalyticInputs::Fields() {
  return {
      {"hot_request_fraction", &hot_request_fraction, Closed(0, 1)},
      {"queue_length", &queue_length, AtLeast(1)},
  };
}

Status AnalyticInputs::Validate() const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
  if (layout.num_replicas != 0) {
    return Status::InvalidArgument(
        "the closed-form model assumes one copy per block (NR-0)");
  }
  TJ_RETURN_IF_ERROR(jukebox.Validate());
  return layout.Validate(jukebox.num_tapes);
}

double ExpectedSweepSpanMb(const AnalyticInputs& inputs, TapeId tape,
                           double batch) {
  const auto tapes = BuildDistributions(inputs);
  TJ_CHECK(tape >= 0 && static_cast<size_t>(tape) < tapes.size());
  return ExpectedSpan(tapes[static_cast<size_t>(tape)], batch,
                      inputs.jukebox.block_size_mb);
}

StatusOr<AnalyticPrediction> PredictRoundRobin(
    const AnalyticInputs& inputs) {
  TJ_RETURN_IF_ERROR(inputs.Validate());
  const TimingModel model(inputs.jukebox.timing);
  const TimingParams& p = model.params();
  const int64_t block_mb = inputs.jukebox.block_size_mb;
  const auto queue = static_cast<double>(inputs.queue_length);

  const auto tapes = BuildDistributions(inputs);

  // Visit cost for a batch of `batch` requests drawn from `dist`: switch
  // in (eject + robot + load), forward locates covering the expected span,
  // the reads, and the end-of-sweep rewind (charged here; it happens just
  // before the next switch).
  auto visit_seconds = [&](const TapeDistribution& dist, double batch,
                           double* span_out) {
    const double span = ExpectedSpan(dist, batch, block_mb);
    if (span_out != nullptr) *span_out = span;
    const double reads =
        batch * model.ReadTime(block_mb, LocateKind::kForward);
    const double locate_distance =
        std::max(0.0, span - batch * static_cast<double>(block_mb));
    const double locates =
        batch * p.fwd_long_startup + p.fwd_long_per_mb * locate_distance;
    const double rewind = p.rev_long_startup + p.rev_long_per_mb * span +
                          p.bot_extra_seconds;
    return model.SwitchTime() + locates + reads + rewind;
  };

  // Steady state. A completed request immediately regenerates onto a
  // random tape, so requests can be served more than once per round-robin
  // cycle: with S requests served per cycle of length C and mean response
  // R = C/2 + v_mean/2 (wait for the tape's turn, then complete mid-sweep),
  // Little's law (population Q, zero think time) gives the fixed point
  //   S = Q * C / R,   b_t = S * p_t,   C = sum_t v_t(b_t).
  // For the uniform case this converges to b ~= 2Q / (T + 1).
  double served_per_cycle = queue;  // initial guess
  double cycle = 0;
  double mean_visit = 0;
  for (int iteration = 0; iteration < 64; ++iteration) {
    cycle = 0;
    mean_visit = 0;
    for (const TapeDistribution& dist : tapes) {
      const double batch = served_per_cycle * dist.request_probability;
      if (batch < 1e-9) continue;
      const double visit = visit_seconds(dist, batch, nullptr);
      cycle += visit;
      mean_visit += dist.request_probability * visit;
    }
    if (cycle <= 0) {
      return Status::InvalidArgument("no tape receives any requests");
    }
    const double response = cycle / 2.0 + mean_visit / 2.0;
    const double next = queue * cycle / response;
    if (std::abs(next - served_per_cycle) < 1e-9) {
      served_per_cycle = next;
      break;
    }
    served_per_cycle = next;
  }

  AnalyticPrediction prediction;
  prediction.cycle_seconds = cycle;
  double batches = 0;
  double spans = 0;
  int32_t visited = 0;
  for (const TapeDistribution& dist : tapes) {
    const double batch = served_per_cycle * dist.request_probability;
    if (batch < 1e-9) continue;
    double span = 0;
    visit_seconds(dist, batch, &span);
    batches += batch;
    spans += span;
    ++visited;
  }
  prediction.mean_batch_per_visit = visited > 0 ? batches / visited : 0;
  prediction.mean_span_mb = visited > 0 ? spans / visited : 0;
  prediction.throughput_req_per_min =
      served_per_cycle / (cycle / 60.0);
  // Little's law: R = Q / X.
  prediction.mean_delay_minutes =
      queue / prediction.throughput_req_per_min;
  return prediction;
}

}  // namespace tapejuke
