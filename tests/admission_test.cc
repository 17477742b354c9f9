// Unit tests for the admission-control layer: config validation, the
// static-cap ladder, the adaptive controller's ratchet dynamics
// (immediate shed on violation, comfort-streak hysteresis on recovery),
// and a differential check of its per-class windows against a shared
// window.

#include "sim/admission.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace tapejuke {
namespace {

WorkloadConfig OpenMix(int num_classes, double slo0) {
  WorkloadConfig workload;
  workload.model = QueuingModel::kOpen;
  for (int i = 0; i < num_classes; ++i) {
    TenantClassConfig cls;
    cls.weight = 1.0;
    if (i == 0) cls.p99_slo_seconds = slo0;
    workload.tenant_classes.push_back(cls);
  }
  return workload;
}

TEST(AdmissionConfig, DisabledValidatesAgainstAnything) {
  AdmissionConfig admission;
  WorkloadConfig closed;
  closed.model = QueuingModel::kClosed;
  EXPECT_TRUE(admission.Validate(closed).ok());
}

TEST(AdmissionConfig, RejectsClosedModel) {
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kStaticCap;
  admission.queue_cap = 10;
  WorkloadConfig closed;
  closed.model = QueuingModel::kClosed;
  EXPECT_FALSE(admission.Validate(closed).ok());
}

TEST(AdmissionConfig, StaticCapNeedsPositiveCap) {
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kStaticCap;
  const WorkloadConfig workload = OpenMix(2, 100.0);
  EXPECT_FALSE(admission.Validate(workload).ok());
  admission.queue_cap = 1;
  EXPECT_TRUE(admission.Validate(workload).ok());
}

TEST(AdmissionConfig, AdaptiveNeedsClassesAndSlo) {
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kAdaptive;
  EXPECT_TRUE(admission.Validate(OpenMix(2, 100.0)).ok());
  // One class: nothing to shed below the protected class.
  EXPECT_FALSE(admission.Validate(OpenMix(1, 100.0)).ok());
  // No SLO anywhere: the controller would never trigger.
  EXPECT_FALSE(admission.Validate(OpenMix(3, 0.0)).ok());
}

TEST(AdmissionController, NoneAdmitsEverything) {
  const WorkloadConfig workload = OpenMix(2, 100.0);
  AdmissionController controller(AdmissionConfig{},
                                 workload.tenant_classes);
  EXPECT_TRUE(controller.Admit(0, 0.0, 1'000'000));
  EXPECT_TRUE(controller.Admit(1, 0.0, 1'000'000));
}

TEST(AdmissionController, StaticCapLadderSharesByClass) {
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kStaticCap;
  admission.queue_cap = 10;
  const WorkloadConfig workload = OpenMix(2, 100.0);
  AdmissionController controller(admission, workload.tenant_classes);
  // Class 0 keeps the whole cap; class 1 only half of it.
  EXPECT_TRUE(controller.Admit(0, 0.0, 9));
  EXPECT_FALSE(controller.Admit(0, 0.0, 10));
  EXPECT_TRUE(controller.Admit(1, 0.0, 4));
  EXPECT_FALSE(controller.Admit(1, 0.0, 5));
}

// Drives the adaptive controller through one shed / recover cycle by hand:
// a healthy completion stream, then a queue explosion (Little's-law
// estimate blows the SLO), then an idle queue that must stay shed until
// the comfort streak completes. The 2 000 s window re-evaluates every
// >= 250 s.
TEST(AdmissionController, AdaptiveShedsAndRecoversWithHysteresis) {
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kAdaptive;
  const WorkloadConfig workload = OpenMix(2, 100.0);
  AdmissionController controller(admission, workload.tenant_classes);

  // Establish a completion rate of 0.05/s with 10 s delays (comfortable).
  for (int i = 0; i < 100; ++i) {
    controller.OnCompletion(0, /*delay=*/10.0, /*now=*/i * 20.0);
  }

  // est_wait = 1000 / 0.05 = 20000 s >> SLO 100: shed the best-effort
  // class immediately, keep admitting the protected class.
  EXPECT_FALSE(controller.Admit(1, 2000.0, 1000));
  EXPECT_EQ(controller.shed_level(), 1);
  EXPECT_TRUE(controller.Admit(0, 2000.0, 1000));

  // Queue now empty and the windowed p99 (10 s) is comfortable, but one
  // or two comfortable evaluations must not un-shed.
  EXPECT_FALSE(controller.Admit(1, 2250.0, 0));
  EXPECT_FALSE(controller.Admit(1, 2500.0, 0));
  EXPECT_EQ(controller.shed_level(), 1);
  // Third consecutive comfortable evaluation completes the streak.
  EXPECT_TRUE(controller.Admit(1, 2750.0, 0));
  EXPECT_EQ(controller.shed_level(), 0);
}

TEST(AdmissionController, AdaptiveViolationResetsComfortStreak) {
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kAdaptive;
  const WorkloadConfig workload = OpenMix(2, 100.0);
  AdmissionController controller(admission, workload.tenant_classes);
  for (int i = 0; i < 100; ++i) {
    controller.OnCompletion(0, 10.0, i * 20.0);
  }
  ASSERT_FALSE(controller.Admit(1, 2000.0, 1000));  // shed
  ASSERT_FALSE(controller.Admit(1, 2250.0, 0));     // comfortable x1
  ASSERT_FALSE(controller.Admit(1, 2500.0, 0));     // comfortable x2
  // A fresh violation lands before the streak completes: the streak must
  // restart from zero, so two more comfortable evaluations stay shed.
  ASSERT_FALSE(controller.Admit(1, 2750.0, 1000));
  EXPECT_EQ(controller.shed_level(), 1);
  EXPECT_FALSE(controller.Admit(1, 3000.0, 0));
  EXPECT_FALSE(controller.Admit(1, 3250.0, 0));
  EXPECT_TRUE(controller.Admit(1, 3500.0, 0));
}

// Completions count for 2 000 s. Slow completions that blow the SLO keep
// the class shed while any of them is inside the window; once the last
// one ages out, three comfortable evaluations un-shed it.
TEST(AdmissionController, AdaptiveWindowForgetsCompletionsAfter2000Seconds) {
  AdmissionConfig admission;
  admission.policy = AdmissionPolicy::kAdaptive;
  const WorkloadConfig workload = OpenMix(2, 100.0);
  AdmissionController controller(admission, workload.tenant_classes);
  for (int i = 0; i < 100; ++i) {
    controller.OnCompletion(0, /*delay=*/500.0, /*now=*/i * 20.0);
  }
  // p99 500 s > SLO 100 s: shed, with an empty queue.
  EXPECT_FALSE(controller.Admit(1, 2000.0, 0));
  EXPECT_EQ(controller.shed_level(), 1);
  // At 3 970 s the completion at 1 980 s is still in the window: a fresh
  // violation, so the comfort streak has not started.
  EXPECT_FALSE(controller.Admit(1, 3970.0, 0));
  // From 4 250 s the window is empty: comfortable x1, x2, x3.
  EXPECT_FALSE(controller.Admit(1, 4250.0, 0));
  EXPECT_FALSE(controller.Admit(1, 4500.0, 0));
  EXPECT_TRUE(controller.Admit(1, 4750.0, 0));
  EXPECT_EQ(controller.shed_level(), 0);
}

// The adaptive controller with one completion window shared by every
// class: each evaluation filters the window per SLO class, copies that
// class's delays and reads the p99 with nth_element.
class SharedWindowController {
 public:
  explicit SharedWindowController(std::vector<TenantClassConfig> classes)
      : classes_(std::move(classes)),
        num_classes_(static_cast<int>(classes_.size())) {}

  bool Admit(uint8_t tenant, double now, int64_t outstanding) {
    UpdateLevel(now, outstanding);
    return static_cast<int>(tenant) < num_classes_ - shed_level_;
  }

  void OnCompletion(uint8_t tenant, double delay, double now) {
    window_.push_back(Entry{now, tenant, delay});
  }

  int shed_level() const { return shed_level_; }

  /// Completions an evaluation at `now` would keep.
  int64_t LiveCompletions(double now) const {
    return std::count_if(window_.begin(), window_.end(), [&](const Entry& e) {
      return !(e.time < now - kAdmissionWindowSeconds);
    });
  }

  /// Coverage: the largest class window an evaluation read, and how many
  /// evaluations kept a completion exactly kAdmissionWindowSeconds old.
  size_t largest_class_window = 0;
  int64_t boundary_evaluations = 0;

 private:
  struct Entry {
    double time;
    uint8_t tenant;
    double delay;
  };

  void UpdateLevel(double now, int64_t outstanding) {
    const double step = kAdmissionWindowSeconds / 8.0;
    if (last_update_ >= 0 && now - last_update_ < step) return;
    last_update_ = now;
    while (!window_.empty() &&
           window_.front().time < now - kAdmissionWindowSeconds) {
      window_.pop_front();
    }
    if (!window_.empty() &&
        window_.front().time == now - kAdmissionWindowSeconds) {
      ++boundary_evaluations;
    }
    const double rate =
        static_cast<double>(window_.size()) / kAdmissionWindowSeconds;
    const double est_wait =
        rate > 0 ? static_cast<double>(outstanding) / rate
                 : (outstanding > 0 ? std::numeric_limits<double>::infinity()
                                    : 0.0);
    bool violated = false;
    bool all_comfortable = true;
    for (int c = 0; c < num_classes_; ++c) {
      const double slo = classes_[static_cast<size_t>(c)].p99_slo_seconds;
      if (slo <= 0) continue;
      std::vector<double> delays;
      for (const Entry& entry : window_) {
        if (entry.tenant == c) delays.push_back(entry.delay);
      }
      largest_class_window = std::max(largest_class_window, delays.size());
      double p99 = 0;
      if (!delays.empty()) {
        const size_t idx = std::min(
            delays.size() - 1,
            static_cast<size_t>(0.99 * static_cast<double>(delays.size())));
        std::nth_element(delays.begin(),
                         delays.begin() + static_cast<ptrdiff_t>(idx),
                         delays.end());
        p99 = delays[idx];
      }
      if (p99 > slo || est_wait > 0.4 * slo) violated = true;
      if (p99 > 0.7 * slo || est_wait > 0.25 * slo) all_comfortable = false;
    }
    if (violated) {
      shed_level_ = std::min(shed_level_ + 1, num_classes_ - 1);
      comfort_streak_ = 0;
    } else if (all_comfortable) {
      if (++comfort_streak_ >= 3 && shed_level_ > 0) {
        --shed_level_;
        comfort_streak_ = 0;
      }
    } else {
      comfort_streak_ = 0;
    }
  }

  std::vector<TenantClassConfig> classes_;
  int num_classes_;
  std::deque<Entry> window_;
  int shed_level_ = 0;
  int comfort_streak_ = 0;
  double last_update_ = -1.0;
};

// Seeded random streams through AdmissionController and the shared-window
// controller must give the same admission and shed level after every
// call. The streams mix 2-4 classes (the last without an SLO), bunches of
// up to 400 completions of one class at one instant, delays drawn near
// the p99 thresholds and repeated, evaluations exactly
// kAdmissionWindowSeconds after a completion, and outstanding counts
// around both Little's-law thresholds. Every time is a whole second, so
// `now - kAdmissionWindowSeconds` lands exactly on a completion's time.
//
// The ext_overload bench and the farm_degraded benchmark workload never
// hold more than 100 completions of one class in a window (at most 32 and
// 29 at seeds 1 and 4242), where the p99 is the window's maximum; this
// test is the only coverage of a p99 read below the maximum (k > 0).
TEST(AdmissionControllerDifferential, MatchesSharedWindowController) {
  size_t largest_class_window = 0;
  int64_t boundary_evaluations = 0;
  int64_t level_changes = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Rng rng(seed);
    const int num_classes = 2 + static_cast<int>(rng.UniformUint64(3));
    std::vector<TenantClassConfig> classes(static_cast<size_t>(num_classes));
    std::vector<double> slos;
    for (int c = 0; c + 1 < num_classes; ++c) {
      if (c > 0 && rng.Bernoulli(0.5)) continue;
      const double slo = std::round(rng.UniformDouble(500, 20'000));
      classes[static_cast<size_t>(c)].p99_slo_seconds = slo;
      slos.push_back(slo);
    }
    AdmissionConfig config;
    config.policy = AdmissionPolicy::kAdaptive;
    AdmissionController controller(config, classes);
    SharedWindowController shared(classes);

    // Most delays sit well under every threshold. A share of them, from 0
    // to 5% per stream, sits at or past one, so a window's p99 lies on
    // either side of a threshold depending on how many of those it holds
    // against k. Some delays repeat exactly.
    const double slow_share = rng.UniformDouble(0, 0.05);
    const auto draw_delay = [&](uint8_t tenant) {
      double slo = classes[tenant].p99_slo_seconds;
      if (slo <= 0) slo = slos[rng.UniformUint64(slos.size())];
      if (!rng.Bernoulli(slow_share)) {
        return rng.Bernoulli(0.2) ? 0.5 * slo
                                  : std::round(rng.UniformDouble(0, 0.6 * slo));
      }
      switch (rng.UniformUint64(4)) {
        case 0:
          return slo;
        case 1:
          return 0.7 * slo;
        case 2:
          return 0.8 * slo;
        default:
          return std::round(rng.UniformDouble(slo, 2 * slo));
      }
    };
    double now = 0;
    std::vector<double> completion_times;
    for (int step = 0; step < 2'000; ++step) {
      const double roll = rng.UniformDouble();
      if (roll < 0.45) {
        const auto tenant = static_cast<uint8_t>(
            rng.UniformUint64(static_cast<uint64_t>(num_classes)));
        const int count =
            roll < 0.01 ? 1 + static_cast<int>(rng.UniformUint64(400)) : 1;
        for (int i = 0; i < count; ++i) {
          const double delay = draw_delay(tenant);
          controller.OnCompletion(tenant, delay, now);
          shared.OnCompletion(tenant, delay, now);
        }
        completion_times.push_back(now);
      } else if (roll < 0.55) {
        // Move to exactly kAdmissionWindowSeconds after a completion that
        // an evaluation at `now` would still keep.
        const auto first = std::lower_bound(
            completion_times.begin(), completion_times.end(),
            now - kAdmissionWindowSeconds);
        if (first == completion_times.end()) continue;
        const auto offset = static_cast<ptrdiff_t>(rng.UniformUint64(
            static_cast<uint64_t>(completion_times.end() - first)));
        now = *(first + offset) + kAdmissionWindowSeconds;
      } else if (roll < 0.75) {
        now += static_cast<double>(rng.UniformUint64(400));
      } else {
        // est_wait = outstanding / rate sits at one threshold (+-1) or
        // under both, where the p99 alone decides.
        const double slo = slos[rng.UniformUint64(slos.size())];
        const double rate = static_cast<double>(shared.LiveCompletions(now)) /
                            kAdmissionWindowSeconds;
        int64_t outstanding = 0;
        if (rng.Bernoulli(0.6)) {
          const double at = (rng.Bernoulli(0.5) ? 0.4 : 0.25) * slo * rate;
          outstanding = std::max<int64_t>(
              0, static_cast<int64_t>(std::round(at)) - 1 +
                     static_cast<int64_t>(rng.UniformUint64(3)));
        } else if (rng.Bernoulli(0.75)) {
          outstanding = static_cast<int64_t>(0.25 * slo * rate *
                                             rng.UniformDouble());
        }
        const auto tenant = static_cast<uint8_t>(
            rng.UniformUint64(static_cast<uint64_t>(num_classes)));
        const int before = shared.shed_level();
        ASSERT_EQ(controller.Admit(tenant, now, outstanding),
                  shared.Admit(tenant, now, outstanding))
            << "seed " << seed << " step " << step;
        if (shared.shed_level() != before) ++level_changes;
      }
      ASSERT_EQ(controller.shed_level(), shared.shed_level())
          << "seed " << seed << " step " << step;
    }
    largest_class_window =
        std::max(largest_class_window, shared.largest_class_window);
    boundary_evaluations += shared.boundary_evaluations;
  }
  // The streams reach what they are meant to cover.
  EXPECT_GT(largest_class_window, 300u);
  EXPECT_GT(boundary_evaluations, 0);
  EXPECT_GT(level_changes, 0);
}

}  // namespace
}  // namespace tapejuke
