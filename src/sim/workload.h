// Workload generation: hot/cold skewed block selection and the two request
// arrival processes of the paper (§4).
//
// The skew model has two parameters: PH, the fraction of tape-resident data
// that is hot (a property of the Catalog), and RH, the fraction of requests
// directed to hot data. A hot request picks a hot block uniformly; a cold
// request picks a cold block uniformly. Requested blocks are independent.
//
// Two arrival scenarios: *closed queuing* models a fixed number of
// I/O-bound processes — a constant population of outstanding requests where
// each completion immediately spawns a new request; *open queuing* models a
// large client pool — a Poisson arrival process whose rate is independent
// of the service rate.

#ifndef TAPEJUKE_SIM_WORKLOAD_H_
#define TAPEJUKE_SIM_WORKLOAD_H_

#include <cstdint>
#include <vector>

#include "layout/catalog.h"
#include "sched/request.h"
#include "util/fields.h"
#include "util/rng.h"
#include "util/status.h"

namespace tapejuke {

/// Which arrival process drives the simulation.
enum class QueuingModel {
  kClosed,  ///< constant outstanding-request population
  kOpen,    ///< Poisson arrivals, rate independent of service
};
inline constexpr const char* kQueuingModelNames[] = {"closed", "open"};

/// How request popularity is distributed over blocks.
enum class SkewModel {
  /// The paper's two-level model: RH of requests uniformly over the hot
  /// blocks, the rest uniformly over the cold blocks.
  kHotCold,
  /// Zipf(theta) over block rank (block id == popularity rank; the layout
  /// already places the lowest ids — the catalog's "hot" set — in the hot
  /// region, so placement studies carry over). theta = 0 is uniform;
  /// higher theta is more skewed.
  kZipf,
};
inline constexpr const char* kSkewModelNames[] = {"hot-cold", "zipf"};

/// One tenant (priority) class in the overload mix. Class index = position
/// in WorkloadConfig::tenant_classes; lower index = more protected (the
/// adaptive admission policy sheds the highest index first).
struct TenantClassConfig {
  /// Relative arrival share; normalized across the mix.
  double weight = 1.0;
  /// Relative deadline: a request of this class expires
  /// `deadline_seconds` after arrival if still queued. 0 = no deadline.
  double deadline_seconds = 0.0;
  /// p99 response-delay target the admission layer defends. 0 = best
  /// effort (never triggers shedding, shed first under pressure).
  double p99_slo_seconds = 0.0;

  /// One row per field, in results-JSON key order (util/fields.h).
  std::vector<Field> Fields();
};

/// Workload parameters.
struct WorkloadConfig {
  QueuingModel model = QueuingModel::kClosed;
  /// Closed model: the constant population of outstanding requests.
  int64_t queue_length = 60;
  /// Open model: mean interarrival time, seconds.
  double mean_interarrival_seconds = 60.0;
  SkewModel skew = SkewModel::kHotCold;
  /// RH: fraction of requests directed to hot blocks (kHotCold).
  double hot_request_fraction = 0.40;
  /// Zipf exponent (kZipf).
  double zipf_theta = 0.8;
  uint64_t seed = 1;

  /// Tenant mix. Empty = the historical single-class workload: every
  /// request is tenant 0 with no deadline, and no overload draws are made
  /// (output stays byte-identical to pre-overload builds).
  std::vector<TenantClassConfig> tenant_classes;
  /// Open model: correlated bursts layered on the base process. Burst
  /// onsets are Poisson with this mean gap (0 = off); each burst adds
  /// 1 + Exponential(burst_size - 1) extra arrivals spread uniformly over
  /// [onset, onset + burst_spread_seconds].
  double burst_interval_seconds = 0.0;
  double burst_size = 1.0;
  double burst_spread_seconds = 0.0;

  bool HasTenantClasses() const { return !tenant_classes.empty(); }

  /// One row per field, in results-JSON key order (util/fields.h). The
  /// tenant classes and the burst knobs are written only when set, so
  /// overload-free documents stay byte-identical to earlier output.
  std::vector<Field> Fields();

  /// Checks every row and every tenant class's rows, then the rules that
  /// join fields: a closed population or an open arrival rate, at most 16
  /// classes, deadlines of 0 or >= 1 ms, bursts in the open model only.
  Status Validate() const;
};

/// Draws skewed block ids and mints sequential request ids.
class WorkloadGenerator {
 public:
  /// `catalog` must outlive the generator. If the catalog has no hot (or no
  /// cold) blocks, all requests go to the other class.
  WorkloadGenerator(const Catalog* catalog, const WorkloadConfig& config);

  /// Draws the next requested block id.
  BlockId NextBlock();

  /// kZipf only: maps a uniform quantile `u` to a block rank through the
  /// popularity CDF. Quantiles at or above the final CDF entry (possible
  /// when u == 1.0, or if rounding leaves the normalized CDF just short of
  /// 1.0) clamp to the last block instead of indexing past the catalog.
  /// Exposed so tests can drive the boundary directly.
  BlockId ZipfBlockForQuantile(double u) const;

  /// Mints the next request at `arrival_time`. With a tenant mix
  /// configured, also assigns the tenant class (weighted draw from the
  /// dedicated overload stream) and the absolute deadline.
  Request NextRequest(double arrival_time);

  /// Open model: sample the next interarrival gap (seconds).
  double NextInterarrival();

  /// Open model: gap to the next arrival given the current clock. With no
  /// shaping configured this is exactly NextInterarrival() (same stream,
  /// same draws); with bursts it merges a base Poisson process with the
  /// burst process, drawing both from the dedicated overload stream.
  double NextArrivalGap(double now);

  const WorkloadConfig& config() const { return config_; }

 private:
  /// Weighted tenant draw from the overload stream (mix is non-empty).
  uint8_t NextTenant();
  /// Extends the burst arrival queue with every burst whose onset falls
  /// at or before `horizon`.
  void EnsureBurstsUpTo(double horizon);

  const Catalog* catalog_;
  WorkloadConfig config_;
  Rng rng_;
  /// Dedicated stream for every overload draw (tenant mix, bursts) so
  /// enabling them never perturbs the base block / interarrival sequence.
  Rng overload_rng_;
  RequestId next_id_ = 0;
  /// kZipf: cumulative popularity by block rank.
  std::vector<double> zipf_cdf_;
  /// Cumulative tenant weights, normalized to [0, 1].
  std::vector<double> tenant_cdf_;
  /// Burst process state: pending burst arrival times (sorted, absolute),
  /// the onset of the next not-yet-expanded burst, and a stashed base
  /// arrival drawn past a burst that fired first.
  std::vector<double> burst_queue_;
  size_t burst_head_ = 0;
  double next_burst_onset_ = -1.0;
  double stashed_base_arrival_ = -1.0;
};

/// Deterministic seed for the overload stream, decorrelated from the main
/// workload stream the same way DeriveFaultSeed decorrelates faults.
uint64_t DeriveOverloadSeed(uint64_t workload_seed);

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_WORKLOAD_H_
