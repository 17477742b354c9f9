#include "core/sweep_runner.h"

#include <algorithm>
#include <mutex>
#include <string>

#include "util/thread_pool.h"

namespace tapejuke {

uint64_t DerivePointSeed(uint64_t base_seed, uint64_t point_index) {
  // Two SplitMix64 steps over a state that mixes both inputs. The odd
  // multiplier keeps index 0 from collapsing onto the base seed.
  uint64_t state = base_seed + 0x9E3779B97F4A7C15ULL * (point_index + 1);
  (void)SplitMix64(&state);
  return SplitMix64(&state);
}

SweepRunner::SweepRunner(const SweepOptions& options) : options_(options) {}

ExperimentConfig SweepRunner::EffectiveConfig(ExperimentConfig config,
                                              size_t index) const {
  config.sim.workload.seed = DerivePointSeed(options_.base_seed, index);
  return config;
}

FarmConfig SweepRunner::EffectiveFarmConfig(FarmConfig config,
                                            size_t index) const {
  config.per_jukebox = EffectiveConfig(config.per_jukebox, index);
  return config;
}

Status SweepRunner::RunIndexed(
    size_t num_points, const std::function<Status(size_t)>& fn) const {
  if (num_points == 0) return Status::Ok();
  const size_t workers = std::min(
      num_points, static_cast<size_t>(options_.threads > 0
                                          ? options_.threads
                                          : ThreadPool::DefaultThreads()));
  std::vector<Status> statuses(num_points, Status::Ok());
  // An exception escaping a point must not kill the process (or, worse, a
  // pool worker): capture it into that point's status slot so it is
  // reported like any other per-point failure.
  const auto guarded = [&fn](size_t i) -> Status {
    try {
      return fn(i);
    } catch (const std::exception& e) {
      return Status::Internal(std::string("uncaught exception: ") +
                              e.what());
    } catch (...) {
      return Status::Internal("uncaught exception of unknown type");
    }
  };
  if (workers == 1) {
    for (size_t i = 0; i < num_points; ++i) statuses[i] = guarded(i);
  } else {
    ThreadPool pool(static_cast<int>(workers));
    pool.ParallelFor(0, static_cast<int64_t>(num_points),
                     [&](int64_t i) {
                       statuses[static_cast<size_t>(i)] =
                           guarded(static_cast<size_t>(i));
                     });
  }
  for (size_t i = 0; i < num_points; ++i) {
    if (!statuses[i].ok()) {
      return Status(statuses[i].code(), "sweep point " + std::to_string(i) +
                                            ": " + statuses[i].message());
    }
  }
  return Status::Ok();
}

StatusOr<std::vector<ExperimentResult>> SweepRunner::Run(
    const std::vector<ExperimentConfig>& points) const {
  // Validate everything up front so a bad point fails the sweep before any
  // simulation time is spent.
  for (size_t i = 0; i < points.size(); ++i) {
    const Status status = EffectiveConfig(points[i], i).Validate();
    if (!status.ok()) {
      return Status(status.code(), "sweep point " + std::to_string(i) +
                                       ": " + status.message());
    }
  }
  std::vector<ExperimentResult> results(points.size());
  const Status status = RunIndexed(points.size(), [&](size_t i) -> Status {
    StatusOr<ExperimentResult> result =
        ExperimentRunner::Run(EffectiveConfig(points[i], i));
    if (!result.ok()) return result.status();
    results[i] = std::move(result).value();
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return results;
}

StatusOr<std::vector<FarmResult>> SweepRunner::RunFarms(
    const std::vector<FarmConfig>& points) const {
  for (size_t i = 0; i < points.size(); ++i) {
    const Status status = EffectiveFarmConfig(points[i], i).Validate();
    if (!status.ok()) {
      return Status(status.code(), "sweep point " + std::to_string(i) +
                                       ": " + status.message());
    }
  }
  std::vector<FarmResult> results(points.size());
  const Status status = RunIndexed(points.size(), [&](size_t i) -> Status {
    FarmSimulator farm(EffectiveFarmConfig(points[i], i));
    results[i] = farm.Run();
    return Status::Ok();
  });
  if (!status.ok()) return status;
  return results;
}

}  // namespace tapejuke
