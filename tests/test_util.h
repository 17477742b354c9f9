// Shared test helpers: a tiny hand-built jukebox + catalog rig, and the
// multi-drive experiment config.

#ifndef TAPEJUKE_TESTS_TEST_UTIL_H_
#define TAPEJUKE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/results_io.h"
#include "layout/catalog.h"
#include "layout/placement.h"
#include "obs/decision.h"
#include "sim/simulator.h"
#include "tape/jukebox.h"
#include "util/check.h"
#include "util/json.h"

namespace tapejuke {

/// A small jukebox whose tape contents are placed by hand, from which a
/// catalog is derived. Block ids must be dense (0..L-1); hot blocks are the
/// ids below `num_hot`.
class TinyRig {
 public:
  explicit TinyRig(int32_t num_tapes, int64_t capacity_mb = 160,
                   int64_t block_size_mb = 16, int32_t num_drives = 1)
      : jukebox_(MakeConfig(num_tapes, capacity_mb, block_size_mb,
                            num_drives)) {}

  /// Places a copy of `block` at `slot` on `tape`.
  void Place(BlockId block, TapeId tape, int64_t slot) {
    const Status status = jukebox_.tape(tape).PlaceBlock(block, slot);
    TJ_CHECK(status.ok()) << status.ToString();
  }

  /// Derives the catalog from the placed blocks.
  Catalog BuildCatalog(int64_t num_hot = 0) {
    std::map<BlockId, std::vector<Replica>> by_block;
    for (TapeId t = 0; t < jukebox_.num_tapes(); ++t) {
      const Tape& tape = jukebox_.tape(t);
      for (int64_t s = 0; s < tape.num_slots(); ++s) {
        const BlockId b = tape.BlockAtSlot(s);
        if (b == kInvalidBlock) continue;
        by_block[b].push_back(Replica{t, s, tape.PositionOfSlot(s)});
      }
    }
    TJ_CHECK(!by_block.empty());
    const BlockId max_block = by_block.rbegin()->first;
    std::vector<std::vector<Replica>> replicas(
        static_cast<size_t>(max_block) + 1);
    for (auto& [block, copies] : by_block) {
      replicas[static_cast<size_t>(block)] = std::move(copies);
    }
    return Catalog(std::move(replicas), num_hot);
  }

  Jukebox& jukebox() { return jukebox_; }
  const TimingModel& model() const { return jukebox_.model(); }
  int64_t block_mb() const { return jukebox_.config().block_size_mb; }

 private:
  static JukeboxConfig MakeConfig(int32_t num_tapes, int64_t capacity_mb,
                                  int64_t block_size_mb, int32_t num_drives) {
    JukeboxConfig config;
    config.num_tapes = num_tapes;
    config.block_size_mb = block_size_mb;
    config.num_drives = num_drives;
    config.timing.tape_capacity_mb = capacity_mb;
    return config;
  }

  Jukebox jukebox_;
};

/// Captures every decision record a scheduler pushes.
class DecisionLog : public obs::DecisionSink {
 public:
  void RecordDecision(const obs::DecisionRecord& record) override {
    records.push_back(record);
  }
  std::vector<obs::DecisionRecord> records;
};

/// The slot bitmap (TapeCandidate::slot_bits form) of the block-aligned
/// `positions`: at least `words` words long, and long enough to hold the
/// last position.
inline std::vector<uint64_t> SlotBitsAt(const std::vector<Position>& positions,
                                        int64_t block_mb, size_t words = 0) {
  std::vector<uint64_t> bits(words);
  for (const Position p : positions) {
    TJ_CHECK(p % block_mb == 0) << p;
    const auto slot = static_cast<size_t>(p / block_mb);
    if (bits.size() <= slot / 64) bits.resize(slot / 64 + 1);
    bits[slot / 64] |= uint64_t{1} << (slot % 64);
  }
  return bits;
}

/// `result` as the results JSON writes it (byte-level comparisons).
inline std::string ResultsJson(const SimulationResult& result) {
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, result);
  return os.str();
}

/// `sim` on `num_drives` drives of `jukebox` holding `layout`, scheduled
/// by `algorithm`: the experiment every multi-drive test runs.
inline ExperimentConfig DriveExperiment(
    int32_t num_drives, const SimulationConfig& sim,
    const LayoutSpec& layout = {},
    const std::string& algorithm = "dynamic-max-bandwidth",
    const JukeboxConfig& jukebox = {}) {
  ExperimentConfig config;
  config.jukebox = jukebox;
  config.jukebox.num_drives = num_drives;
  config.layout = layout;
  config.sim = sim;
  config.algorithm = AlgorithmSpec::Parse(algorithm).value();
  return config;
}

/// ExperimentRunner::Run on a config that must be valid.
inline ExperimentResult RunExperiment(const ExperimentConfig& config) {
  StatusOr<ExperimentResult> result = ExperimentRunner::Run(config);
  TJ_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// A jukebox config with `num_drives` drives and defaults otherwise.
inline JukeboxConfig WithDrives(int32_t num_drives,
                                JukeboxConfig config = {}) {
  config.num_drives = num_drives;
  return config;
}

/// The protected tenant class's p99 SLO in bench/ext_overload, seconds.
inline constexpr double kOverloadProtectedSlo = 15000.0;

/// bench/ext_overload's point at mean interarrival `gap` (at its defaults:
/// seed 1, no faults): the paper's base configuration (10 tapes, 16 MB
/// blocks, PH-10 RH-40 NR-0 SP-0, dynamic max-bandwidth) under an open
/// workload split 10/30/60 across a protected class (p99 SLO
/// kOverloadProtectedSlo), a standard class (3x that) and best effort.
/// With `deadlines` the first two classes carry queueing deadlines of one
/// and two SLOs. 25 s is 2x saturation.
inline ExperimentConfig OverloadBenchPoint(double gap, bool deadlines) {
  ExperimentConfig config;
  config.jukebox.num_tapes = 10;
  config.jukebox.block_size_mb = 16;
  config.layout.hot_fraction = 0.10;
  config.layout.num_replicas = 0;
  config.layout.start_position = 0.0;
  config.algorithm = AlgorithmSpec::Parse("dynamic-max-bandwidth").value();
  WorkloadConfig& workload = config.sim.workload;
  workload.model = QueuingModel::kOpen;
  workload.mean_interarrival_seconds = gap;
  workload.hot_request_fraction = 0.40;
  workload.seed = 1;
  TenantClassConfig premium;
  premium.weight = 0.1;
  premium.p99_slo_seconds = kOverloadProtectedSlo;
  TenantClassConfig standard;
  standard.weight = 0.3;
  standard.p99_slo_seconds = 3.0 * kOverloadProtectedSlo;
  TenantClassConfig besteffort;
  besteffort.weight = 0.6;
  if (deadlines) {
    premium.deadline_seconds = kOverloadProtectedSlo;
    standard.deadline_seconds = 2.0 * kOverloadProtectedSlo;
  }
  workload.tenant_classes = {premium, standard, besteffort};
  return config;
}

}  // namespace tapejuke

#endif  // TAPEJUKE_TESTS_TEST_UTIL_H_
