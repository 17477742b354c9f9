// SLO-aware admission control: the policy layer that decides, at arrival
// time, whether a request may enter the scheduler at all (overload
// protection, ROADMAP `tapejuked` item).
//
// Three policies:
//  * kNone      — admit everything (the historical behavior).
//  * kStaticCap — a graded queue cap: with K tenant classes, class c is
//    admitted only while outstanding < cap * (K - c) / K, so best-effort
//    traffic backs off first and the most protected class keeps the whole
//    cap. With no tenant mix this degenerates to a plain cap.
//  * kAdaptive  — SLO-driven shedding: a sliding window of completions,
//    kept per tenant class, estimates each class's p99 delay and the
//    queue's expected wait (Little's law: outstanding / completion rate).
//    When either crosses a protected class's p99 SLO the controller
//    ratchets its shed level up, dropping the lowest-priority classes;
//    when every protected class is comfortably below its SLO (hysteresis
//    at 70%) the level ratchets back down.
//
// The controller is purely event-driven (no RNG, no wall clock), so runs
// remain bit-identical at any thread count.

#ifndef TAPEJUKE_SIM_ADMISSION_H_
#define TAPEJUKE_SIM_ADMISSION_H_

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/workload.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

enum class AdmissionPolicy {
  kNone,
  kStaticCap,
  kAdaptive,
};
inline constexpr const char* kAdmissionPolicyNames[] = {"none", "static-cap",
                                                        "adaptive"};

/// kAdaptive: sliding-window length for the p99 / completion-rate
/// estimates, seconds. The shed level is re-evaluated at most 8x per window.
inline constexpr double kAdmissionWindowSeconds = 2000.0;

/// Admission-control parameters (part of SimulationConfig).
struct AdmissionConfig {
  AdmissionPolicy policy = AdmissionPolicy::kNone;
  /// kStaticCap: the outstanding-request cap for the most protected class.
  int64_t queue_cap = 0;

  bool enabled() const { return policy != AdmissionPolicy::kNone; }

  /// One row per field, in results-JSON key order (util/fields.h).
  std::vector<Field> Fields();

  /// Checks every row, then the policy against the workload it will gate.
  Status Validate(const WorkloadConfig& workload) const;
};

/// Decides admission per arrival and tracks the adaptive shed level.
class AdmissionController {
 public:
  /// `classes` is the workload's tenant mix (may be empty for kStaticCap;
  /// kAdaptive requires >= 2 classes, enforced by Validate).
  AdmissionController(const AdmissionConfig& config,
                      const std::vector<TenantClassConfig>& classes);

  /// True if a request of class `tenant` arriving at `now` with
  /// `outstanding` requests currently in the system may be enqueued.
  bool Admit(uint8_t tenant, double now, int64_t outstanding);

  /// Feeds a completed request's delay into the adaptive window.
  void OnCompletion(uint8_t tenant, double delay, double now);

  /// Current number of lowest-priority classes being shed (kAdaptive).
  int shed_level() const { return shed_level_; }

 private:
  struct Completion {
    double time;
    double delay;
  };

  void UpdateLevel(double now, int64_t outstanding);
  /// The p99 delay of one class's window (0 when empty).
  static double WindowP99(const std::deque<Completion>& window);

  AdmissionConfig config_;
  std::vector<TenantClassConfig> classes_;
  int num_classes_;

  /// kAdaptive state. Un-shedding requires kComfortStreak consecutive
  /// comfortable evaluations, so one quiet window cannot restart the
  /// overload.
  static constexpr int kComfortStreak = 3;
  /// One window per tenant class, each in completion order. Completions
  /// arrive in clock order, so evicting each window's expired front
  /// evicts exactly what one shared window would.
  std::vector<std::deque<Completion>> windows_;
  int shed_level_ = 0;
  int comfort_streak_ = 0;
  double last_update_ = -1.0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_ADMISSION_H_
