// Shared test helpers: a tiny hand-built jukebox + catalog rig, and a
// multi-drive box rig.

#ifndef TAPEJUKE_TESTS_TEST_UTIL_H_
#define TAPEJUKE_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/results_io.h"
#include "layout/catalog.h"
#include "layout/placement.h"
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
                   int64_t block_size_mb = 16)
      : jukebox_(MakeConfig(num_tapes, capacity_mb, block_size_mb)) {}

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
                                  int64_t block_size_mb) {
    JukeboxConfig config;
    config.num_tapes = num_tapes;
    config.block_size_mb = block_size_mb;
    config.timing.tape_capacity_mb = capacity_mb;
    return config;
  }

  Jukebox jukebox_;
};

/// `result` as the results JSON writes it (byte-level comparisons).
inline std::string ResultsJson(const SimulationResult& result) {
  std::ostringstream os;
  JsonWriter w(&os);
  WriteJson(&w, result);
  return os.str();
}

/// One jukebox with `num_drives` drives, its layout, and the scheduler for
/// `algorithm` — the box every multi-drive test runs. The drive count is
/// set before the layout and the scheduler are built.
struct DriveRig {
  explicit DriveRig(int32_t num_drives, const LayoutSpec& layout = {},
                    const std::string& algorithm = "dynamic-max-bandwidth",
                    const JukeboxConfig& config = {})
      : jukebox(config),
        catalog(LayoutBuilder::Build(WithDrives(&jukebox, num_drives),
                                     layout)
                    .value()),
        scheduler(CreateScheduler(AlgorithmSpec::Parse(algorithm).value(),
                                  &jukebox, &catalog)) {}

  /// Runs `sim` to completion (mutable catalog, so faults may be on);
  /// call once.
  SimulationResult Run(const SimulationConfig& sim) {
    Simulator simulator(&jukebox, &catalog, scheduler.get(), sim);
    const SimulationResult result = simulator.Run();
    claim_conflicts = simulator.claim_conflicts();
    return result;
  }

  static Jukebox* WithDrives(Jukebox* jukebox, int32_t num_drives) {
    jukebox->SetNumDrives(num_drives);
    return jukebox;
  }

  Jukebox jukebox;
  Catalog catalog;
  std::unique_ptr<Scheduler> scheduler;
  int64_t claim_conflicts = 0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_TESTS_TEST_UTIL_H_
