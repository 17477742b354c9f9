// Unit tests for the admission-control layer: config validation, the
// static-cap ladder, and the adaptive controller's ratchet dynamics
// (immediate shed on violation, comfort-streak hysteresis on recovery).

#include "sim/admission.h"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace tapejuke
