#include "sim/workload.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace tapejuke {

std::vector<Field> TenantClassConfig::Fields() {
  return {
      // Bounded so that the sum of 16 weights, the tenant CDF's
      // normalizer, cannot overflow to +inf.
      {"weight", &weight, OpenClosed(0, 1e300)},
      {"deadline_seconds", &deadline_seconds, AtLeast(0)},
      {"p99_slo_seconds", &p99_slo_seconds, AtLeast(0), {}, true, "p99 SLO"},
  };
}

std::vector<Field> WorkloadConfig::Fields() {
  const bool bursts = burst_interval_seconds > 0;
  return {
      {"model", Enum(&model, kQueuingModelNames), {},
       {"queuing", "closed or open"}},
      {"queue_length", &queue_length, AtLeast(0),
       {"queue", "closed model: outstanding requests"}},
      {"think_time_seconds", Fixed(0.0)},
      {"mean_interarrival_seconds", &mean_interarrival_seconds, AtLeast(0),
       {"interarrival", "open model: mean interarrival seconds"}},
      {"skew", Enum(&skew, kSkewModelNames)},
      {"hot_request_fraction", &hot_request_fraction, Closed(0, 1),
       {"rh", "fraction of requests to hot data"}},
      {"zipf_theta", &zipf_theta, AtLeast(0)},
      {"seed", &seed, {}, {"seed", "workload seed"}},
      {"tenant_classes", List(&tenant_classes), {}, {}, HasTenantClasses()},
      {"burst_interval_seconds", &burst_interval_seconds, AtLeast(0), {},
       bursts},
      // A burst adds 1 + int64_t(Exponential(burst_size - 1)) arrivals.
      // Rng::Exponential(m) <= 53 ln(2) m < 37 m (it draws 1 - U >= 2^-53),
      // so this bound keeps the cast below 3.7e16, inside int64_t.
      {"burst_size", &burst_size, Closed(1, 1e15), {}, bursts},
      {"burst_spread_seconds", &burst_spread_seconds, AtLeast(0), {}, bursts},
  };
}

Status WorkloadConfig::Validate() const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
  if (model == QueuingModel::kClosed && queue_length == 0) {
    return Status::InvalidArgument("closed model needs queue_length >= 1");
  }
  if (model == QueuingModel::kOpen && mean_interarrival_seconds == 0) {
    return Status::InvalidArgument(
        "open model needs a positive mean interarrival time");
  }
  if (tenant_classes.size() > 16) {
    return Status::InvalidArgument("at most 16 tenant classes");
  }
  for (const TenantClassConfig& cls : tenant_classes) {
    if (cls.deadline_seconds != 0 && cls.deadline_seconds < 1e-3) {
      return Status::InvalidArgument(
          "tenant deadline must be 0 (none) or >= 1ms; sub-millisecond "
          "deadlines expire faster than any tape service");
    }
  }
  if (burst_interval_seconds > 0 && model != QueuingModel::kOpen) {
    return Status::InvalidArgument(
        "burst arrival shaping applies to the open model only");
  }
  return Status::Ok();
}

uint64_t DeriveOverloadSeed(uint64_t workload_seed) {
  uint64_t state = workload_seed ^ 0xdead11e55eedULL;
  return SplitMix64(&state);
}

WorkloadGenerator::WorkloadGenerator(const Catalog* catalog,
                                     const WorkloadConfig& config)
    : catalog_(catalog),
      config_(config),
      rng_(config.seed),
      overload_rng_(DeriveOverloadSeed(config.seed)) {
  TJ_CHECK(catalog != nullptr);
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK_GT(catalog->num_blocks(), 0);
  if (!config.tenant_classes.empty()) {
    tenant_cdf_.reserve(config.tenant_classes.size());
    double cumulative = 0;
    for (const TenantClassConfig& cls : config.tenant_classes) {
      cumulative += cls.weight;
      tenant_cdf_.push_back(cumulative);
    }
    for (double& value : tenant_cdf_) value /= cumulative;
  }
  if (config.skew == SkewModel::kZipf) {
    // Popularity of rank r (0-based) proportional to 1 / (r+1)^theta.
    zipf_cdf_.reserve(static_cast<size_t>(catalog->num_blocks()));
    double cumulative = 0;
    for (BlockId r = 0; r < catalog->num_blocks(); ++r) {
      cumulative += 1.0 / std::pow(static_cast<double>(r + 1),
                                   config.zipf_theta);
      zipf_cdf_.push_back(cumulative);
    }
    for (double& value : zipf_cdf_) value /= cumulative;
  }
}

BlockId WorkloadGenerator::ZipfBlockForQuantile(double u) const {
  TJ_CHECK(config_.skew == SkewModel::kZipf);
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  if (it == zipf_cdf_.end()) {
    // u landed at/above the final CDF entry; without the clamp this would
    // mint a BlockId one past the catalog.
    return static_cast<BlockId>(zipf_cdf_.size()) - 1;
  }
  return static_cast<BlockId>(it - zipf_cdf_.begin());
}

BlockId WorkloadGenerator::NextBlock() {
  if (config_.skew == SkewModel::kZipf) {
    return ZipfBlockForQuantile(rng_.UniformDouble());
  }
  const int64_t hot = catalog_->num_hot_blocks();
  const int64_t cold = catalog_->num_cold_blocks();
  bool pick_hot = rng_.Bernoulli(config_.hot_request_fraction);
  if (hot == 0) pick_hot = false;
  if (cold == 0) pick_hot = true;
  if (pick_hot) {
    return static_cast<BlockId>(
        rng_.UniformUint64(static_cast<uint64_t>(hot)));
  }
  return hot + static_cast<BlockId>(
                   rng_.UniformUint64(static_cast<uint64_t>(cold)));
}

uint8_t WorkloadGenerator::NextTenant() {
  const double u = overload_rng_.UniformDouble();
  const auto it =
      std::lower_bound(tenant_cdf_.begin(), tenant_cdf_.end(), u);
  if (it == tenant_cdf_.end()) {
    return static_cast<uint8_t>(tenant_cdf_.size() - 1);
  }
  return static_cast<uint8_t>(it - tenant_cdf_.begin());
}

Request WorkloadGenerator::NextRequest(double arrival_time) {
  Request request{next_id_++, NextBlock(), arrival_time};
  if (!tenant_cdf_.empty()) {
    request.tenant = NextTenant();
    const double deadline =
        config_.tenant_classes[request.tenant].deadline_seconds;
    if (deadline > 0) request.deadline = arrival_time + deadline;
  }
  return request;
}

double WorkloadGenerator::NextInterarrival() {
  return rng_.Exponential(config_.mean_interarrival_seconds);
}

void WorkloadGenerator::EnsureBurstsUpTo(double horizon) {
  if (config_.burst_interval_seconds <= 0) return;
  if (next_burst_onset_ < 0) {
    next_burst_onset_ =
        overload_rng_.Exponential(config_.burst_interval_seconds);
  }
  bool expanded = false;
  while (next_burst_onset_ <= horizon) {
    int64_t extra = 1;
    if (config_.burst_size > 1.0) {
      extra += static_cast<int64_t>(
          overload_rng_.Exponential(config_.burst_size - 1.0));
    }
    for (int64_t i = 0; i < extra; ++i) {
      const double offset =
          config_.burst_spread_seconds > 0
              ? overload_rng_.UniformDouble(0.0,
                                            config_.burst_spread_seconds)
              : 0.0;
      burst_queue_.push_back(next_burst_onset_ + offset);
    }
    next_burst_onset_ +=
        overload_rng_.Exponential(config_.burst_interval_seconds);
    expanded = true;
  }
  if (expanded) {
    // Bursts can overlap when the spread exceeds the onset gap, so keep
    // the whole unconsumed region sorted, not just the new segment.
    std::sort(burst_queue_.begin() + static_cast<ptrdiff_t>(burst_head_),
              burst_queue_.end());
  }
}

double WorkloadGenerator::NextArrivalGap(double now) {
  if (config_.burst_interval_seconds <= 0) return NextInterarrival();
  // Candidate base-process arrival; reuse the stashed draw if a burst
  // arrival preempted it last time.
  double base = stashed_base_arrival_;
  if (base < 0) {
    base = now + overload_rng_.Exponential(config_.mean_interarrival_seconds);
  }
  EnsureBurstsUpTo(base);
  if (burst_head_ < burst_queue_.size() &&
      burst_queue_[burst_head_] <= base) {
    const double t = burst_queue_[burst_head_++];
    stashed_base_arrival_ = base;
    if (burst_head_ > 1024 && burst_head_ * 2 > burst_queue_.size()) {
      burst_queue_.erase(
          burst_queue_.begin(),
          burst_queue_.begin() + static_cast<ptrdiff_t>(burst_head_));
      burst_head_ = 0;
    }
    return std::max(0.0, t - now);
  }
  stashed_base_arrival_ = -1.0;
  return std::max(0.0, base - now);
}

}  // namespace tapejuke
