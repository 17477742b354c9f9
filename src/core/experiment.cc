#include "core/experiment.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "sched/envelope_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/greedy_scheduler.h"
#include "util/check.h"
#include "util/fields.h"
#include "util/flags.h"

namespace tapejuke {

namespace {

StatusOr<TapePolicy> ParsePolicy(const std::string& name) {
  const int index = NameIndex(kTapePolicyNames, name);
  if (index < 0) {
    return Status::InvalidArgument("unknown tape policy '" + name + "'");
  }
  return static_cast<TapePolicy>(index);
}

}  // namespace

std::string AlgorithmSpec::Name() const {
  switch (kind) {
    case AlgorithmKind::kFifo:
      return "fifo";
    case AlgorithmKind::kStatic:
      return std::string("static ") + TapePolicyName(policy);
    case AlgorithmKind::kDynamic:
      return std::string("dynamic ") + TapePolicyName(policy);
    case AlgorithmKind::kEnvelope:
      return std::string(TapePolicyName(policy)) + " envelope";
  }
  return "unknown";
}

StatusOr<AlgorithmSpec> AlgorithmSpec::Parse(const std::string& name) {
  AlgorithmSpec spec;
  if (name == "fifo") {
    spec.kind = AlgorithmKind::kFifo;
    return spec;
  }
  const auto dash = name.find('-');
  if (dash == std::string::npos) {
    return Status::InvalidArgument("unknown algorithm '" + name + "'");
  }
  const std::string family = name.substr(0, dash);
  const std::string policy_name = name.substr(dash + 1);
  if (family == "static") {
    spec.kind = AlgorithmKind::kStatic;
  } else if (family == "dynamic") {
    spec.kind = AlgorithmKind::kDynamic;
  } else if (family == "envelope") {
    spec.kind = AlgorithmKind::kEnvelope;
  } else {
    return Status::InvalidArgument("unknown algorithm family '" + family +
                                   "'");
  }
  StatusOr<TapePolicy> policy = ParsePolicy(policy_name);
  if (!policy.ok()) return policy.status();
  spec.policy = *policy;
  return spec;
}

std::vector<AlgorithmSpec> AlgorithmSpec::AllPaperAlgorithms() {
  std::vector<AlgorithmSpec> all;
  all.push_back(AlgorithmSpec{AlgorithmKind::kFifo, TapePolicy::kRoundRobin,
                              SchedulerOptions{}});
  const TapePolicy policies[] = {
      TapePolicy::kRoundRobin, TapePolicy::kMaxRequests,
      TapePolicy::kMaxBandwidth, TapePolicy::kOldestMaxRequests,
      TapePolicy::kOldestMaxBandwidth};
  for (const TapePolicy policy : policies) {
    all.push_back(
        AlgorithmSpec{AlgorithmKind::kStatic, policy, SchedulerOptions{}});
  }
  for (const TapePolicy policy : policies) {
    all.push_back(
        AlgorithmSpec{AlgorithmKind::kDynamic, policy, SchedulerOptions{}});
  }
  const TapePolicy envelope_policies[] = {TapePolicy::kOldestMaxRequests,
                                          TapePolicy::kMaxRequests,
                                          TapePolicy::kMaxBandwidth};
  for (const TapePolicy policy : envelope_policies) {
    all.push_back(
        AlgorithmSpec{AlgorithmKind::kEnvelope, policy, SchedulerOptions{}});
  }
  return all;
}

std::unique_ptr<Scheduler> CreateScheduler(const AlgorithmSpec& spec,
                                           const Jukebox* jukebox,
                                           const Catalog* catalog) {
  switch (spec.kind) {
    case AlgorithmKind::kFifo:
      return std::make_unique<FifoScheduler>(jukebox, catalog, spec.options);
    case AlgorithmKind::kStatic:
      return std::make_unique<GreedyScheduler>(jukebox, catalog, spec.policy,
                                               /*dynamic=*/false,
                                               spec.options);
    case AlgorithmKind::kDynamic:
      return std::make_unique<GreedyScheduler>(jukebox, catalog, spec.policy,
                                               /*dynamic=*/true,
                                               spec.options);
    case AlgorithmKind::kEnvelope:
      return std::make_unique<EnvelopeScheduler>(jukebox, catalog,
                                                 spec.policy, spec.options);
  }
  TJ_CHECK(false) << "unreachable algorithm kind";
  return nullptr;
}

Status ExperimentConfig::Validate() const {
  TJ_RETURN_IF_ERROR(jukebox.Validate());
  TJ_RETURN_IF_ERROR(sim.Validate());
  TJ_RETURN_IF_ERROR(algorithm.options.Validate());
  return layout.Validate(jukebox.num_tapes);
}

StatusOr<ExperimentResult> ExperimentRunner::Run(
    const ExperimentConfig& config, const std::vector<TraceRecord>* trace) {
  TJ_RETURN_IF_ERROR(config.Validate());
  Jukebox jukebox(config.jukebox);
  StatusOr<Catalog> catalog = LayoutBuilder::Build(&jukebox, config.layout);
  if (!catalog.ok()) return catalog.status();
  const std::unique_ptr<Scheduler> scheduler =
      CreateScheduler(config.algorithm, &jukebox, &catalog.value());
  std::optional<Simulator> simulator;
  if (trace == nullptr) {
    simulator.emplace(&jukebox, &catalog.value(), scheduler.get(), config.sim);
  } else {
    StatusOr<std::vector<Request>> arrivals =
        TraceToRequests(*catalog, *trace);
    if (!arrivals.ok()) return arrivals.status();
    simulator.emplace(&jukebox, &catalog.value(), scheduler.get(),
                      config.sim, std::move(arrivals).value());
  }
  ExperimentResult result;
  result.sim = simulator->Run();
  result.layout = LayoutBuilder::ComputeStats(jukebox, catalog.value());
  result.algorithm_name = scheduler->name();
  result.jukebox_counters = jukebox.counters();
  return result;
}

StatusOr<double> DefaultSimSeconds() {
  const char* env = std::getenv("TAPEJUKE_SIM_SECONDS");
  if (env == nullptr) return 2'000'000.0;
  double seconds = 0;
  if (!ParseFiniteDouble(env, &seconds) || seconds <= 0) {
    std::string message =
        "TAPEJUKE_SIM_SECONDS must be a finite number > 0, got '";
    message += env;
    message += "'";
    return Status::InvalidArgument(message);
  }
  return seconds;
}

}  // namespace tapejuke
