#include "sim/admission.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>

#include "util/check.h"

namespace tapejuke {

std::vector<Field> AdmissionConfig::Fields() {
  return {
      {"policy", Enum(&policy, kAdmissionPolicyNames)},
      {"queue_cap", &queue_cap, AtLeast(0)},
      {"window_seconds", Fixed(kAdmissionWindowSeconds)},
  };
}

Status AdmissionConfig::Validate(const WorkloadConfig& workload) const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
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
      num_classes_(std::max<int>(1, static_cast<int>(classes.size()))),
      windows_(classes.size()) {}

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
  TJ_CHECK_LT(size_t{tenant}, windows_.size());
  windows_[tenant].push_back(Completion{now, delay});
}

double AdmissionController::WindowP99(const std::deque<Completion>& window) {
  if (window.empty()) return 0;
  // The p99 is the ascending order statistic at idx, which is the
  // (k+1)-th largest delay with k = n - 1 - idx: k = 0, the maximum, for
  // every window of 100 entries or fewer.
  const size_t n = window.size();
  const size_t idx =
      std::min(n - 1, static_cast<size_t>(0.99 * static_cast<double>(n)));
  const size_t k = n - 1 - idx;
  if (k == 0) {
    double max = window.front().delay;
    for (const Completion& entry : window) max = std::max(max, entry.delay);
    return max;
  }
  // One pass keeping the k + 1 largest delays in a min-heap: its top is
  // the (k+1)-th largest.
  std::vector<double> top;
  top.reserve(k + 1);
  for (const Completion& entry : window) {
    if (top.size() <= k) {
      top.push_back(entry.delay);
      std::push_heap(top.begin(), top.end(), std::greater<>());
    } else if (entry.delay > top.front()) {
      std::pop_heap(top.begin(), top.end(), std::greater<>());
      top.back() = entry.delay;
      std::push_heap(top.begin(), top.end(), std::greater<>());
    }
  }
  return top.front();
}

void AdmissionController::UpdateLevel(double now, int64_t outstanding) {
  // Re-evaluate at most 8x per window; in between, Admit reuses the
  // current level so arrival bursts stay O(1).
  const double step = kAdmissionWindowSeconds / 8.0;
  if (last_update_ >= 0 && now - last_update_ < step) return;
  last_update_ = now;

  size_t completions = 0;
  for (std::deque<Completion>& window : windows_) {
    while (!window.empty() &&
           window.front().time < now - kAdmissionWindowSeconds) {
      window.pop_front();
    }
    completions += window.size();
  }

  // Little's-law estimate of the wait a request admitted now would see:
  // every class shares one queue, so one estimate serves them all.
  const double rate =
      static_cast<double>(completions) / kAdmissionWindowSeconds;
  const double est_wait =
      rate > 0 ? static_cast<double>(outstanding) / rate
               : (outstanding > 0 ? std::numeric_limits<double>::infinity()
                                  : 0.0);

  bool violated = false;
  bool all_comfortable = true;
  for (int c = 0; c < static_cast<int>(classes_.size()); ++c) {
    const double slo = classes_[static_cast<size_t>(c)].p99_slo_seconds;
    if (slo <= 0) continue;
    const double p99 = WindowP99(windows_[static_cast<size_t>(c)]);
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
