// Layout construction: hot/cold placement and hot-data replication.
//
// Implements the data-layout policies the paper evaluates (§4.3-§4.5):
//
//  * Horizontal vs vertical hot layouts. Horizontal spreads hot data (and
//    replicas) over all tapes; vertical dedicates one tape to the hot
//    originals and spreads replicas round-robin over the remaining tapes.
//  * The normalized start position SP in [0, 1] of the hot region within
//    each tape (SP-0 = beginning of tape, SP-1.0 = end of tape).
//  * NR replicas of every hot block, at most one copy per tape, distributed
//    round-robin. Replication shrinks the logical dataset that fits in the
//    fixed-capacity jukebox ("fewer cold items fit on each tape"); the
//    builder sizes the dataset to the maximum that fits the requested
//    layout.
//  * The §4.8 spare-capacity variant (cold data packed into as few tapes as
//    possible, leaving empty space where replicas would have gone).

#ifndef TAPEJUKE_LAYOUT_PLACEMENT_H_
#define TAPEJUKE_LAYOUT_PLACEMENT_H_

#include <cstdint>
#include <vector>

#include "layout/catalog.h"
#include "tape/jukebox.h"
#include "util/fields.h"
#include "util/status.h"

namespace tapejuke {

/// Where hot data lives across tapes.
enum class HotLayout {
  kHorizontal,  ///< hot data distributed over all tapes
  kVertical,    ///< one dedicated hot tape; replicas on the others
};
inline constexpr const char* kHotLayoutNames[] = {"horizontal", "vertical"};

/// Full layout specification (the paper's PH / NR / SP / layout knobs).
struct LayoutSpec {
  /// Fraction of logical blocks that are hot (PH / 100).
  double hot_fraction = 0.10;
  /// Number of extra copies of each hot block (NR). Bounded by the tape
  /// count: copies of one block must live on distinct tapes.
  int32_t num_replicas = 0;
  /// Normalized start position SP of the hot region within each tape: it
  /// starts at SP * (free span). SP 0.5 centers it, the organ-pipe
  /// placement of related work [3].
  double start_position = 0.0;
  HotLayout layout = HotLayout::kHorizontal;
  /// If > 0, use exactly this many logical blocks instead of the maximum
  /// that fits (must be feasible).
  int64_t logical_blocks_override = 0;
  /// §4.8 spare-capacity packing: place cold data on as few tapes as
  /// possible instead of spreading it round-robin.
  bool pack_cold = false;

  /// One row per field, in results-JSON key order (util/fields.h).
  std::vector<Field> Fields();

  /// Checks every row, then the spec against a jukebox geometry: the tape
  /// count, which is all the checks need, so a config can be checked
  /// before any jukebox is built.
  Status Validate(const Jukebox& jukebox) const;
  Status Validate(int32_t num_tapes) const;
};

/// Summary of a constructed layout.
struct LayoutStats {
  int64_t logical_blocks = 0;
  int64_t hot_blocks = 0;
  int64_t cold_blocks = 0;
  int64_t total_copies = 0;
  int64_t used_slots = 0;
  int64_t total_slots = 0;
  /// Measured expansion factor: physical copies / logical blocks.
  double measured_expansion = 1.0;
};

/// Builds layouts into a jukebox and produces the replica catalog.
class LayoutBuilder {
 public:
  /// Populates the (empty) jukebox tapes per `spec` and returns the
  /// catalog, whose CSR arrays it writes in place: each block's replicas
  /// in ascending tape order. Fails on invalid specs or infeasible
  /// overrides.
  static StatusOr<Catalog> Build(Jukebox* jukebox, const LayoutSpec& spec);

  /// The largest logical dataset (block count) that fits `spec` in the
  /// jukebox geometry. Returns 0 if nothing fits. A binary search whose
  /// probes count each tape's hot copies arithmetically, O(tapes) each.
  /// `spec` must pass Validate for the geometry.
  static int64_t MaxLogicalBlocks(const Jukebox& jukebox,
                                  const LayoutSpec& spec);

  /// Paper Fig. 10(a): analytic storage expansion factor
  /// E = 1 + NR * PH, with PH as a fraction.
  static double ExpansionFactor(double hot_fraction, int32_t num_replicas) {
    return 1.0 + static_cast<double>(num_replicas) * hot_fraction;
  }

  /// Stats for a catalog built against `jukebox`.
  static LayoutStats ComputeStats(const Jukebox& jukebox,
                                  const Catalog& catalog);
};

}  // namespace tapejuke

#endif  // TAPEJUKE_LAYOUT_PLACEMENT_H_
