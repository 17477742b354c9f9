// Unit and property tests for layout construction (placement + replication).

#include "layout/placement.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>
#include <vector>

namespace tapejuke {
namespace {

JukeboxConfig PaperJukebox() {
  JukeboxConfig config;
  config.num_tapes = 10;
  config.block_size_mb = 16;  // 448 slots per tape, 4480 total
  return config;
}

TEST(LayoutSpec, ValidateBounds) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  EXPECT_TRUE(spec.Validate(jukebox).ok());
  spec.hot_fraction = 1.5;
  EXPECT_FALSE(spec.Validate(jukebox).ok());
  spec = LayoutSpec{};
  spec.start_position = -0.1;
  EXPECT_FALSE(spec.Validate(jukebox).ok());
  spec = LayoutSpec{};
  spec.num_replicas = 10;  // horizontal needs NR + 1 <= 10
  EXPECT_FALSE(spec.Validate(jukebox).ok());
  spec.num_replicas = 9;
  EXPECT_TRUE(spec.Validate(jukebox).ok());
  spec = LayoutSpec{};
  spec.layout = HotLayout::kVertical;
  spec.num_replicas = 9;  // vertical allows up to T - 1
  EXPECT_TRUE(spec.Validate(jukebox).ok());
  spec.num_replicas = 10;
  EXPECT_FALSE(spec.Validate(jukebox).ok());
  spec = LayoutSpec{};
  spec.hot_fraction = 0.0;
  spec.num_replicas = 1;
  EXPECT_FALSE(spec.Validate(jukebox).ok());
}

TEST(LayoutBuilder, ExpansionFactorMatchesPaperFormula) {
  // Fig. 10(a): E = 1 + NR * PH.
  EXPECT_DOUBLE_EQ(LayoutBuilder::ExpansionFactor(0.10, 0), 1.0);
  EXPECT_DOUBLE_EQ(LayoutBuilder::ExpansionFactor(0.10, 9), 1.9);
  EXPECT_DOUBLE_EQ(LayoutBuilder::ExpansionFactor(0.05, 4), 1.2);
  EXPECT_DOUBLE_EQ(LayoutBuilder::ExpansionFactor(0.20, 5), 2.0);
}

TEST(LayoutBuilder, NoReplicationUsesAllSlots) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;  // PH-10, NR-0, SP-0, horizontal
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  EXPECT_EQ(catalog.num_blocks(), 4480);
  EXPECT_EQ(catalog.num_hot_blocks(), 448);
  EXPECT_EQ(catalog.TotalCopies(), 4480);
  const LayoutStats stats = LayoutBuilder::ComputeStats(jukebox, catalog);
  EXPECT_EQ(stats.used_slots, 4480);
  EXPECT_DOUBLE_EQ(stats.measured_expansion, 1.0);
}

TEST(LayoutBuilder, FullReplicationShrinksDataset) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.num_replicas = 9;
  spec.start_position = 1.0;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  // L ~= 4480 / 1.9 ~= 2357.
  EXPECT_NEAR(catalog.num_blocks(), 4480 / 1.9, 16);
  // Hot blocks have all 10 copies.
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    EXPECT_EQ(catalog.ReplicasOf(b).size(), 10u);
  }
  // Cold blocks have exactly one copy.
  for (BlockId b = catalog.num_hot_blocks(); b < catalog.num_blocks(); ++b) {
    EXPECT_EQ(catalog.ReplicasOf(b).size(), 1u);
  }
  const LayoutStats stats = LayoutBuilder::ComputeStats(jukebox, catalog);
  EXPECT_NEAR(stats.measured_expansion, 1.9, 0.02);
}

TEST(LayoutBuilder, StartPositionZeroPutsHotAtBeginning) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;  // SP-0
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    for (const Replica& r : catalog.ReplicasOf(b)) {
      // ~448 hot blocks over 10 tapes: hot region is the first ~45 slots.
      EXPECT_LT(r.slot, 46);
    }
  }
}

TEST(LayoutBuilder, StartPositionOnePutsHotAtEnd) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.start_position = 1.0;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    for (const Replica& r : catalog.ReplicasOf(b)) {
      EXPECT_GE(r.slot, 448 - 46);
    }
  }
}

TEST(LayoutBuilder, OrganPipeCentersHotRegion) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.placement = PlacementScheme::kOrganPipe;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    for (const Replica& r : catalog.ReplicasOf(b)) {
      EXPECT_GT(r.slot, 150);
      EXPECT_LT(r.slot, 300);
    }
  }
}

TEST(LayoutBuilder, VerticalDedicatesTapeZeroToHot) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.layout = HotLayout::kVertical;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  // PH-10 with NR-0: hot data exactly fills one tape.
  EXPECT_EQ(catalog.num_hot_blocks(), 448);
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    ASSERT_EQ(catalog.ReplicasOf(b).size(), 1u);
    EXPECT_EQ(catalog.ReplicasOf(b).front().tape, 0);
  }
  for (BlockId b = catalog.num_hot_blocks(); b < catalog.num_blocks(); ++b) {
    EXPECT_NE(catalog.ReplicasOf(b).front().tape, 0);
  }
}

TEST(LayoutBuilder, VerticalReplicasAvoidHotTape) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.layout = HotLayout::kVertical;
  spec.num_replicas = 3;
  spec.start_position = 1.0;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    const auto& replicas = catalog.ReplicasOf(b);
    ASSERT_EQ(replicas.size(), 4u);
    int on_hot_tape = 0;
    for (const Replica& r : replicas) {
      if (r.tape == 0) ++on_hot_tape;
    }
    EXPECT_EQ(on_hot_tape, 1);  // only the original
  }
}

TEST(LayoutBuilder, PackColdLeavesSpareTapesEmpty) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.layout = HotLayout::kVertical;
  spec.pack_cold = true;
  // Use the dataset size of the fully replicated scheme, but store no
  // replicas (§4.8's spare-capacity baseline).
  LayoutSpec replicated;
  replicated.layout = HotLayout::kVertical;
  replicated.num_replicas = 9;
  const int64_t replicated_max =
      LayoutBuilder::MaxLogicalBlocks(jukebox, replicated);
  spec.logical_blocks_override = replicated_max;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  EXPECT_EQ(catalog.num_blocks(), replicated_max);
  // Cold data is packed: at least two tapes stay completely empty.
  int empty_tapes = 0;
  for (TapeId t = 0; t < jukebox.num_tapes(); ++t) {
    if (jukebox.tape(t).num_blocks() == 0) ++empty_tapes;
  }
  EXPECT_GE(empty_tapes, 2);
}

TEST(LayoutBuilder, OverrideInfeasibleFails) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.logical_blocks_override = 4481;  // one more than the slots
  const StatusOr<Catalog> result = LayoutBuilder::Build(&jukebox, spec);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCapacityExceeded);
}

TEST(LayoutBuilder, BuildRequiresEmptyJukebox) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  ASSERT_TRUE(LayoutBuilder::Build(&jukebox, spec).ok());
  const StatusOr<Catalog> second = LayoutBuilder::Build(&jukebox, spec);
  EXPECT_EQ(second.status().code(), StatusCode::kFailedPrecondition);
}

TEST(LayoutBuilder, ZeroHotFractionIsAllCold) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.hot_fraction = 0.0;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  EXPECT_EQ(catalog.num_hot_blocks(), 0);
  EXPECT_EQ(catalog.num_blocks(), 4480);
}

TEST(LayoutBuilder, MultiTapeVerticalPacksHotOntoLeadingTapes) {
  // PH-30: more hot data than one tape holds. The vertical layout
  // generalizes to a minimal prefix of dedicated hot tapes (the paper
  // stopped at one tape; §4.3 voices a suspicion about this case).
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.hot_fraction = 0.30;
  spec.layout = HotLayout::kVertical;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  EXPECT_EQ(catalog.num_blocks(), 4480);  // nothing wasted
  EXPECT_EQ(catalog.num_hot_blocks(), 1344);  // exactly 3 tapes
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    EXPECT_LT(catalog.ReplicasOf(b).front().tape, 3);
  }
  for (BlockId b = catalog.num_hot_blocks(); b < catalog.num_blocks();
       ++b) {
    EXPECT_GE(catalog.ReplicasOf(b).front().tape, 3);
  }
  // Hot tapes are completely full.
  for (TapeId t = 0; t < 3; ++t) {
    EXPECT_EQ(jukebox.tape(t).num_blocks(), 448);
  }
}

TEST(LayoutBuilder, MultiTapeVerticalWithReplicasAvoidsHotTapes) {
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.hot_fraction = 0.25;
  spec.layout = HotLayout::kVertical;
  spec.num_replicas = 2;
  spec.start_position = 1.0;
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
  const int32_t hot_tapes = static_cast<int32_t>(
      (catalog.num_hot_blocks() + 447) / 448);
  for (BlockId b = 0; b < catalog.num_hot_blocks(); ++b) {
    const auto& replicas = catalog.ReplicasOf(b);
    ASSERT_EQ(replicas.size(), 3u);
    int on_hot_tapes = 0;
    for (const Replica& replica : replicas) {
      if (replica.tape < hot_tapes) ++on_hot_tapes;
    }
    EXPECT_EQ(on_hot_tapes, 1);  // only the original
  }
}

TEST(LayoutBuilder, VerticalReplicationBoundedByNonHotTapes) {
  // PH-30 leaves 7 non-hot tapes: 7 replicas fit, 8 cannot.
  Jukebox jukebox(PaperJukebox());
  LayoutSpec spec;
  spec.hot_fraction = 0.30;
  spec.layout = HotLayout::kVertical;
  spec.num_replicas = 7;
  EXPECT_GT(LayoutBuilder::MaxLogicalBlocks(jukebox, spec), 0);
  spec.num_replicas = 8;
  // Infeasible at any dataset size where 3 hot tapes are needed; the
  // builder shrinks the dataset until fewer hot tapes suffice or fails.
  const int64_t max_blocks = LayoutBuilder::MaxLogicalBlocks(jukebox, spec);
  if (max_blocks > 0) {
    const int64_t hot = std::llround(0.30 * static_cast<double>(max_blocks));
    EXPECT_LE((hot + 447) / 448, 2);
  }
}

// ---------------------------------------------------------------------------
// Capacity oracle: MaxLogicalBlocks counts each tape's hot copies
// arithmetically. The reference below places every copy with the per-copy
// rule and binary-searches over that count; the two must agree everywhere.
// ---------------------------------------------------------------------------

// Per-tape hot-copy counts from placing every copy by the layout rule:
// horizontal puts copy j of block h on tape (h + j) mod T; vertical packs
// the originals onto the leading hot tapes and deals replica
// k = h * NR + j - 1 round-robin over the remaining tapes. The copies are
// visited in that order with running tape cursors, which is the rule
// without a division per copy.
std::vector<int64_t> ReferenceHotCopies(const LayoutSpec& spec,
                                        int32_t num_tapes, int64_t slots,
                                        int64_t hot) {
  std::vector<int64_t> counts(static_cast<size_t>(num_tapes), 0);
  if (spec.layout == HotLayout::kHorizontal) {
    for (int64_t h = 0; h < hot; ++h) {
      int32_t t = static_cast<int32_t>(h % num_tapes);
      for (int32_t j = 0; j <= spec.num_replicas; ++j) {
        ++counts[static_cast<size_t>(t)];
        if (++t == num_tapes) t = 0;
      }
    }
    return counts;
  }
  const auto hot_tapes = static_cast<int32_t>((hot + slots - 1) / slots);
  int32_t replica_tape = hot_tapes;  // tape of replica k = 0, 1, ...
  for (int64_t h = 0; h < hot; ++h) {
    ++counts[static_cast<size_t>(h / slots)];
    for (int32_t j = 1; j <= spec.num_replicas; ++j) {
      ++counts[static_cast<size_t>(replica_tape)];
      if (++replica_tape == num_tapes) replica_tape = hot_tapes;
    }
  }
  return counts;
}

bool ReferenceFits(int32_t num_tapes, int64_t slots, const LayoutSpec& spec,
                   int64_t logical) {
  const int64_t hot =
      std::llround(spec.hot_fraction * static_cast<double>(logical));
  const int64_t cold = logical - hot;
  if (hot < 0 || cold < 0) return false;
  int32_t hot_tapes = 0;
  if (spec.layout == HotLayout::kVertical) {
    hot_tapes = static_cast<int32_t>((hot + slots - 1) / slots);
    if (hot_tapes >= num_tapes && cold > 0) return false;
    if (spec.num_replicas > num_tapes - hot_tapes) return false;
  }
  const std::vector<int64_t> counts =
      ReferenceHotCopies(spec, num_tapes, slots, hot);
  int64_t cold_capacity = 0;
  for (TapeId t = 0; t < num_tapes; ++t) {
    const int64_t used = counts[static_cast<size_t>(t)];
    if (used > slots) return false;
    if (spec.layout == HotLayout::kVertical && t < hot_tapes) continue;
    cold_capacity += slots - used;
  }
  return cold <= cold_capacity;
}

int64_t ReferenceMaxLogicalBlocks(int32_t num_tapes, int64_t slots,
                                  const LayoutSpec& spec) {
  int64_t lo = 0;
  int64_t hi = num_tapes * slots;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo + 1) / 2;
    if (ReferenceFits(num_tapes, slots, spec, mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

TEST(LayoutBuilder, MaxLogicalBlocksMatchesPerCopyReference) {
  int64_t checked = 0;
  for (const int64_t block_mb : {1, 16, 64}) {
    for (int32_t tapes = 2; tapes <= 20; ++tapes) {
      JukeboxConfig config;
      config.num_tapes = tapes;
      config.block_size_mb = block_mb;
      const Jukebox jukebox(config);
      for (const HotLayout layout :
           {HotLayout::kHorizontal, HotLayout::kVertical}) {
        for (const double ph : {0.0, 0.05, 0.1, 0.5, 1.0}) {
          for (int32_t nr = 0;; ++nr) {
            LayoutSpec spec;
            spec.layout = layout;
            spec.hot_fraction = ph;
            spec.num_replicas = nr;
            if (!spec.Validate(jukebox).ok()) break;
            const int64_t expected = ReferenceMaxLogicalBlocks(
                tapes, jukebox.slots_per_tape(), spec);
            // Capacity does not depend on how cold data is spread.
            for (const bool pack_cold : {false, true}) {
              spec.pack_cold = pack_cold;
              ASSERT_EQ(LayoutBuilder::MaxLogicalBlocks(jukebox, spec),
                        expected)
                  << "block " << block_mb << " MB, " << tapes << " tapes, "
                  << (layout == HotLayout::kHorizontal ? "horizontal"
                                                       : "vertical")
                  << ", PH " << ph << ", NR " << nr << ", pack_cold "
                  << pack_cold;
              ++checked;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 0);
}

// ---------------------------------------------------------------------------
// Property sweep: every layout in a PH x NR x SP x layout x cold packing x
// placement x block size grid satisfies the structural invariants.
// ---------------------------------------------------------------------------

using LayoutCase = std::tuple<double, int, double, HotLayout, bool,
                              PlacementScheme, int64_t>;

class LayoutPropertyTest : public ::testing::TestWithParam<LayoutCase> {};

TEST_P(LayoutPropertyTest, StructuralInvariantsHold) {
  const auto [ph, nr, sp, layout, pack_cold, placement, block_mb] =
      GetParam();
  JukeboxConfig config = PaperJukebox();
  config.block_size_mb = block_mb;
  Jukebox jukebox(config);
  LayoutSpec spec;
  spec.hot_fraction = ph;
  spec.num_replicas = nr;
  spec.start_position = sp;
  spec.layout = layout;
  spec.pack_cold = pack_cold;
  spec.placement = placement;
  if (!spec.Validate(jukebox).ok()) {
    GTEST_SKIP() << "spec invalid for this geometry";
  }
  const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();

  // Hot blocks have NR+1 copies on distinct tapes, listed in ascending tape
  // order (the order the schedulers see); cold blocks one copy.
  for (BlockId b = 0; b < catalog.num_blocks(); ++b) {
    const auto& replicas = catalog.ReplicasOf(b);
    const size_t expected = catalog.IsHot(b) ? static_cast<size_t>(nr) + 1
                                             : 1u;
    ASSERT_EQ(replicas.size(), expected) << "block " << b;
    TapeId previous = kInvalidTape;
    for (const Replica& r : replicas) {
      ASSERT_GT(r.tape, previous) << "block " << b;
      previous = r.tape;
      // Catalog and tape contents agree.
      const Tape& tape = jukebox.tape(r.tape);
      ASSERT_EQ(tape.BlockAtSlot(r.slot), b);
      ASSERT_EQ(tape.SlotOf(b), r.slot) << "block " << b;
      ASSERT_EQ(r.position, tape.PositionOfSlot(r.slot));
    }
  }

  // Every occupied slot appears in the catalog exactly once.
  int64_t occupied = 0;
  for (TapeId t = 0; t < jukebox.num_tapes(); ++t) {
    occupied += jukebox.tape(t).num_blocks();
  }
  EXPECT_EQ(occupied, catalog.TotalCopies());

  // Hot count matches PH within rounding.
  EXPECT_NEAR(static_cast<double>(catalog.num_hot_blocks()),
              ph * static_cast<double>(catalog.num_blocks()), 1.0);

  // The dataset is maximal: one more block must not fit.
  EXPECT_EQ(LayoutBuilder::MaxLogicalBlocks(jukebox, spec),
            catalog.num_blocks());

  // Measured expansion tracks the analytic E = 1 + NR * PH.
  const LayoutStats stats = LayoutBuilder::ComputeStats(jukebox, catalog);
  EXPECT_NEAR(stats.measured_expansion,
              LayoutBuilder::ExpansionFactor(ph, nr), 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, LayoutPropertyTest,
    ::testing::Combine(::testing::Values(0.05, 0.10, 0.20),
                       ::testing::Values(0, 1, 3, 9),
                       ::testing::Values(0.0, 0.5, 1.0),
                       ::testing::Values(HotLayout::kHorizontal,
                                         HotLayout::kVertical),
                       ::testing::Bool(),
                       ::testing::Values(PlacementScheme::kStartPosition,
                                         PlacementScheme::kOrganPipe),
                       ::testing::Values(int64_t{16}, int64_t{64})));

}  // namespace
}  // namespace tapejuke
