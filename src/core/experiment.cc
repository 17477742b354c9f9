#include "core/experiment.h"

#include <cstdlib>
#include <string>

#include "sched/envelope_scheduler.h"
#include "sched/fifo_scheduler.h"
#include "sched/greedy_scheduler.h"
#include "util/check.h"

namespace tapejuke {

namespace {

StatusOr<TapePolicy> ParsePolicy(const std::string& name) {
  if (name == "round-robin") return TapePolicy::kRoundRobin;
  if (name == "max-requests") return TapePolicy::kMaxRequests;
  if (name == "max-bandwidth") return TapePolicy::kMaxBandwidth;
  if (name == "oldest-max-requests") return TapePolicy::kOldestMaxRequests;
  if (name == "oldest-max-bandwidth") return TapePolicy::kOldestMaxBandwidth;
  return Status::InvalidArgument("unknown tape policy '" + name + "'");
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
  // Layout validation needs jukebox geometry; construct a throwaway.
  const Jukebox probe(jukebox);
  return layout.Validate(probe);
}

Status ValidateDrives(const ExperimentConfig& config, int64_t num_drives) {
  if (num_drives < 1) {
    return Status::InvalidArgument("need at least one drive");
  }
  if (num_drives > config.jukebox.num_tapes) {
    return Status::InvalidArgument(
        "more drives than tapes: " + std::to_string(num_drives) +
        " drives for " + std::to_string(config.jukebox.num_tapes) + " tapes");
  }
  return Status::Ok();
}

StatusOr<ExperimentResult> ExperimentRunner::Run(
    const ExperimentConfig& config) {
  TJ_RETURN_IF_ERROR(config.Validate());
  Jukebox jukebox(config.jukebox);
  StatusOr<Catalog> catalog = LayoutBuilder::Build(&jukebox, config.layout);
  if (!catalog.ok()) return catalog.status();
  const std::unique_ptr<Scheduler> scheduler =
      CreateScheduler(config.algorithm, &jukebox, &catalog.value());
  Simulator simulator(&jukebox, &catalog.value(), scheduler.get(),
                      config.sim);
  ExperimentResult result;
  result.sim = simulator.Run();
  result.layout = LayoutBuilder::ComputeStats(jukebox, catalog.value());
  result.algorithm_name = scheduler->name();
  return result;
}

double DefaultSimSeconds() {
  if (const char* env = std::getenv("TAPEJUKE_SIM_SECONDS")) {
    const double parsed = std::atof(env);
    if (parsed > 0) return parsed;
  }
  return 2'000'000.0;
}

StatusOr<std::vector<CurvePoint>> ThroughputDelayCurve(
    ExperimentConfig base, const std::vector<int64_t>& queue_lengths) {
  std::vector<CurvePoint> curve;
  base.sim.workload.model = QueuingModel::kClosed;
  for (const int64_t queue : queue_lengths) {
    base.sim.workload.queue_length = queue;
    StatusOr<ExperimentResult> result = ExperimentRunner::Run(base);
    if (!result.ok()) return result.status();
    CurvePoint point;
    point.queue_length = queue;
    point.throughput_req_per_min = result->sim.requests_per_minute;
    point.mean_delay_minutes = result->sim.mean_delay_minutes;
    point.sim = result->sim;
    curve.push_back(point);
  }
  return curve;
}

StatusOr<std::vector<CurvePoint>> OpenThroughputDelayCurve(
    ExperimentConfig base, const std::vector<double>& interarrivals) {
  std::vector<CurvePoint> curve;
  base.sim.workload.model = QueuingModel::kOpen;
  for (const double gap : interarrivals) {
    base.sim.workload.mean_interarrival_seconds = gap;
    StatusOr<ExperimentResult> result = ExperimentRunner::Run(base);
    if (!result.ok()) return result.status();
    CurvePoint point;
    point.interarrival_seconds = gap;
    point.throughput_req_per_min = result->sim.requests_per_minute;
    point.mean_delay_minutes = result->sim.mean_delay_minutes;
    point.sim = result->sim;
    curve.push_back(point);
  }
  return curve;
}

}  // namespace tapejuke
