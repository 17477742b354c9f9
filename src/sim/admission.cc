#include "sim/admission.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/check.h"

namespace tapejuke {

Status AdmissionConfig::Validate(const WorkloadConfig& workload) const {
  if (!enabled()) return Status::Ok();
  if (workload.model != QueuingModel::kOpen) {
    return Status::InvalidArgument(
        "admission control applies to the open model only (a closed "
        "population re-issues on completion, so there is nothing to shed)");
  }
  if (policy == AdmissionPolicy::kStaticCap && queue_cap <= 0) {
    return Status::InvalidArgument("static-cap admission needs queue_cap >= 1");
  }
  if (policy == AdmissionPolicy::kAdaptive) {
    if (workload.tenant_classes.size() < 2) {
      return Status::InvalidArgument(
          "adaptive admission needs >= 2 tenant classes (it protects the "
          "high classes by shedding the low ones)");
    }
    bool any_slo = false;
    for (const TenantClassConfig& cls : workload.tenant_classes) {
      if (cls.p99_slo_seconds > 0) any_slo = true;
    }
    if (!any_slo) {
      return Status::InvalidArgument(
          "adaptive admission needs at least one class with a p99 SLO");
    }
  }
  return Status::Ok();
}

AdmissionController::AdmissionController(
    const AdmissionConfig& config,
    const std::vector<TenantClassConfig>& classes)
    : config_(config),
      classes_(classes),
      num_classes_(std::max<int>(1, static_cast<int>(classes.size()))) {}

bool AdmissionController::Admit(uint8_t tenant, double now,
                                int64_t outstanding) {
  switch (config_.policy) {
    case AdmissionPolicy::kNone:
      return true;
    case AdmissionPolicy::kStaticCap: {
      // Graded ladder: class c keeps headroom (K - c) / K of the cap.
      const int64_t k = num_classes_;
      const int64_t share =
          config_.queue_cap * (k - static_cast<int64_t>(tenant)) / k;
      return outstanding < std::max<int64_t>(1, share);
    }
    case AdmissionPolicy::kAdaptive: {
      UpdateLevel(now, outstanding);
      return static_cast<int>(tenant) < num_classes_ - shed_level_;
    }
  }
  return true;
}

void AdmissionController::OnCompletion(uint8_t tenant, double delay,
                                       double now) {
  if (config_.policy != AdmissionPolicy::kAdaptive) return;
  window_.push_back(WindowEntry{now, tenant, delay});
}

void AdmissionController::UpdateLevel(double now, int64_t outstanding) {
  // Re-evaluate at most 8x per window; in between, Admit reuses the
  // current level so arrival bursts stay O(1).
  const double step = kAdmissionWindowSeconds / 8.0;
  if (last_update_ >= 0 && now - last_update_ < step) return;
  last_update_ = now;

  while (!window_.empty() &&
         window_.front().time < now - kAdmissionWindowSeconds) {
    window_.pop_front();
  }

  // Little's-law estimate of the wait a request admitted now would see:
  // every class shares one queue, so one estimate serves them all.
  const double rate =
      static_cast<double>(window_.size()) / kAdmissionWindowSeconds;
  const double est_wait =
      rate > 0 ? static_cast<double>(outstanding) / rate
               : (outstanding > 0 ? std::numeric_limits<double>::infinity()
                                  : 0.0);

  bool violated = false;
  bool all_comfortable = true;
  for (int c = 0; c < static_cast<int>(classes_.size()); ++c) {
    const double slo = classes_[static_cast<size_t>(c)].p99_slo_seconds;
    if (slo <= 0) continue;
    scratch_.clear();
    for (const WindowEntry& entry : window_) {
      if (entry.tenant == c) scratch_.push_back(entry.delay);
    }
    double p99 = 0;
    if (!scratch_.empty()) {
      const size_t idx =
          std::min(scratch_.size() - 1,
                   static_cast<size_t>(
                       0.99 * static_cast<double>(scratch_.size())));
      std::nth_element(scratch_.begin(),
                       scratch_.begin() + static_cast<ptrdiff_t>(idx),
                       scratch_.end());
      p99 = scratch_[idx];
    }
    // The measured p99 confirms a violation at the full SLO, but it lags
    // by the delays themselves (thousands of seconds of queue already
    // admitted). The Little's-law estimate predicts the wait a request
    // admitted *now* would see, so it triggers at 40% of the SLO — the
    // headroom absorbs the backlog that accumulates before the next
    // evaluation and keeps the realized p99 under the SLO, not at it.
    if (p99 > slo || est_wait > 0.4 * slo) violated = true;
    if (p99 > 0.7 * slo || est_wait > 0.25 * slo) all_comfortable = false;
  }

  // Ratchet up immediately on violation; ratchet down only after several
  // consecutive comfortable evaluations. The asymmetry damps the limit
  // cycle where re-admitting the bulk classes instantly re-floods the
  // queue and the protected class pays for every oscillation.
  if (violated) {
    shed_level_ = std::min(shed_level_ + 1, num_classes_ - 1);
    comfort_streak_ = 0;
  } else if (all_comfortable) {
    if (++comfort_streak_ >= kComfortStreak && shed_level_ > 0) {
      --shed_level_;
      comfort_streak_ = 0;
    }
  } else {
    comfort_streak_ = 0;
  }
}

}  // namespace tapejuke
