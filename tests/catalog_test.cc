// Unit tests for the replica catalog.

#include "layout/catalog.h"

#include <gtest/gtest.h>

#include <optional>

#include "layout/placement.h"
#include "sched/envelope_scheduler.h"
#include "sched/greedy_scheduler.h"
#include "sim/lifecycle.h"
#include "sim/simulator.h"

namespace tapejuke {
namespace {

TEST(Catalog, BasicAccessors) {
  std::vector<std::vector<Replica>> replicas = {
      {{0, 0, 0}},            // block 0 (hot): one copy on tape 0
      {{1, 2, 32}, {2, 5, 80}},  // block 1 (cold? no: ids < num_hot are hot)
      {{0, 1, 16}},
  };
  Catalog catalog(std::move(replicas), /*num_hot=*/2);
  EXPECT_EQ(catalog.num_blocks(), 3);
  EXPECT_EQ(catalog.num_hot_blocks(), 2);
  EXPECT_EQ(catalog.num_cold_blocks(), 1);
  EXPECT_TRUE(catalog.IsHot(0));
  EXPECT_TRUE(catalog.IsHot(1));
  EXPECT_FALSE(catalog.IsHot(2));
  EXPECT_EQ(catalog.TotalCopies(), 4);
  EXPECT_EQ(catalog.ReplicasOf(1).size(), 2u);
}

TEST(Catalog, ReplicaOnFindsByTape) {
  std::vector<std::vector<Replica>> replicas = {
      {{0, 0, 0}, {3, 7, 112}},
  };
  Catalog catalog(std::move(replicas), 1);
  const Replica* on3 = catalog.ReplicaOn(0, 3);
  ASSERT_NE(on3, nullptr);
  EXPECT_EQ(on3->position, 112);
  EXPECT_EQ(catalog.ReplicaOn(0, 1), nullptr);
}

Catalog ThreeBlockCatalog() {
  // block 0: copies on tapes 0 and 1; block 1: copies on tapes 1 and 2;
  // block 2: single copy on tape 1.
  std::vector<std::vector<Replica>> replicas = {
      {{0, 0, 0}, {1, 3, 48}},
      {{1, 0, 0}, {2, 2, 32}},
      {{1, 5, 80}},
  };
  return Catalog(std::move(replicas), /*num_hot=*/1);
}

TEST(CatalogDeadMask, FreshCatalogIsFullyLive) {
  const Catalog catalog = ThreeBlockCatalog();
  EXPECT_EQ(catalog.dead_replicas(), 0);
  EXPECT_TRUE(catalog.HasAnyLive());
  for (BlockId b = 0; b < catalog.num_blocks(); ++b) {
    EXPECT_TRUE(catalog.HasLiveReplica(b));
    EXPECT_EQ(catalog.LiveReplicaCount(b),
              static_cast<int64_t>(catalog.ReplicasOf(b).size()));
    for (const Replica& r : catalog.ReplicasOf(b)) {
      EXPECT_TRUE(catalog.IsAlive(r));
    }
  }
}

TEST(CatalogDeadMask, MarkReplicaDeadMasksExactlyOneCopy) {
  Catalog catalog = ThreeBlockCatalog();
  EXPECT_TRUE(catalog.MarkReplicaDead(0, 1));
  EXPECT_EQ(catalog.dead_replicas(), 1);
  EXPECT_FALSE(catalog.IsAlive(*catalog.ReplicaOn(0, 1)));
  EXPECT_TRUE(catalog.IsAlive(*catalog.ReplicaOn(0, 0)));
  EXPECT_EQ(catalog.LiveReplicaCount(0), 1);
  EXPECT_TRUE(catalog.HasLiveReplica(0));
  // The same tape's copies of other blocks are untouched.
  EXPECT_TRUE(catalog.IsAlive(*catalog.ReplicaOn(1, 1)));
  EXPECT_TRUE(catalog.IsAlive(*catalog.ReplicaOn(2, 1)));
  // LiveReplicaOn: masked copy is invisible, existing-but-dead != absent.
  EXPECT_EQ(catalog.LiveReplicaOn(0, 1), nullptr);
  EXPECT_NE(catalog.ReplicaOn(0, 1), nullptr);
  EXPECT_NE(catalog.LiveReplicaOn(0, 0), nullptr);
}

TEST(CatalogDeadMask, MarkReplicaDeadIsIdempotentAndChecksExistence) {
  Catalog catalog = ThreeBlockCatalog();
  EXPECT_TRUE(catalog.MarkReplicaDead(0, 1));
  EXPECT_FALSE(catalog.MarkReplicaDead(0, 1)) << "already dead";
  EXPECT_FALSE(catalog.MarkReplicaDead(0, 2)) << "no copy on tape 2";
  EXPECT_EQ(catalog.dead_replicas(), 1);
}

TEST(CatalogDeadMask, MarkTapeDeadMasksEveryCopyOnTheTape) {
  Catalog catalog = ThreeBlockCatalog();
  EXPECT_EQ(catalog.MarkTapeDead(1), 3);  // blocks 0, 1, and 2 each lose one
  EXPECT_EQ(catalog.dead_replicas(), 3);
  EXPECT_EQ(catalog.LiveReplicaCount(0), 1);
  EXPECT_EQ(catalog.LiveReplicaCount(1), 1);
  EXPECT_EQ(catalog.LiveReplicaCount(2), 0);
  EXPECT_FALSE(catalog.HasLiveReplica(2)) << "block 2 lost its only copy";
  EXPECT_TRUE(catalog.HasAnyLive());
  // Re-masking the same tape masks nothing new.
  EXPECT_EQ(catalog.MarkTapeDead(1), 0);
  EXPECT_EQ(catalog.dead_replicas(), 3);
}

TEST(CatalogDeadMask, WholeArchiveCanDie) {
  Catalog catalog = ThreeBlockCatalog();
  catalog.MarkTapeDead(0);
  catalog.MarkTapeDead(1);
  EXPECT_TRUE(catalog.HasAnyLive()) << "block 1 still lives on tape 2";
  catalog.MarkTapeDead(2);
  EXPECT_FALSE(catalog.HasAnyLive());
  for (BlockId b = 0; b < catalog.num_blocks(); ++b) {
    EXPECT_FALSE(catalog.HasLiveReplica(b));
  }
}

TEST(CatalogDeadMask, AddReplicaAfterMaskingKeepsIndicesAligned) {
  // AddReplica inserts into the middle of the CSR array; the dead mask
  // must shift with it so previously masked replicas stay masked.
  Catalog catalog = ThreeBlockCatalog();
  EXPECT_TRUE(catalog.MarkReplicaDead(1, 2));
  EXPECT_TRUE(catalog.MarkReplicaDead(2, 1));
  // Insert a copy of block 0 on tape 3 — everything after block 0 shifts.
  catalog.AddReplica(0, Replica{3, 1, 16});
  EXPECT_EQ(catalog.dead_replicas(), 2);
  EXPECT_TRUE(catalog.IsAlive(*catalog.ReplicaOn(0, 3)));
  EXPECT_FALSE(catalog.IsAlive(*catalog.ReplicaOn(1, 2)));
  EXPECT_FALSE(catalog.IsAlive(*catalog.ReplicaOn(2, 1)));
  EXPECT_TRUE(catalog.IsAlive(*catalog.ReplicaOn(1, 1)));
  // A new copy restores availability for a fully dead block.
  EXPECT_FALSE(catalog.HasLiveReplica(2));
  catalog.AddReplica(2, Replica{0, 7, 112});
  EXPECT_TRUE(catalog.HasLiveReplica(2));
  EXPECT_EQ(catalog.LiveReplicaCount(2), 1);
}

TEST(CatalogDeathTest, RejectsEmptyReplicaList) {
  std::vector<std::vector<Replica>> replicas = {{}};
  EXPECT_DEATH(Catalog(std::move(replicas), 0), "at least one replica");
}

TEST(CatalogDeathTest, RejectsDuplicateTapes) {
  std::vector<std::vector<Replica>> replicas = {{{0, 0, 0}, {0, 5, 80}}};
  EXPECT_DEATH(Catalog(std::move(replicas), 0), "duplicate replica tape");
}

TEST(CatalogDeathTest, RejectsBadHotCount) {
  std::vector<std::vector<Replica>> replicas = {{{0, 0, 0}}};
  EXPECT_DEATH(Catalog(std::move(replicas), 2), "");
}

// The scheduler groups replicas by slot and reads slot order as position
// order, so every replica must sit at position == slot * block size,
// whichever path placed it: the layout builder, a repair write, or the
// lifecycle fill.
void ExpectPositionsAtSlots(const Catalog& catalog, int64_t block_mb) {
  for (BlockId b = 0; b < catalog.num_blocks(); ++b) {
    for (const Replica& replica : catalog.ReplicasOf(b)) {
      ASSERT_EQ(replica.position, replica.slot * block_mb)
          << "block " << b << " on tape " << replica.tape;
    }
  }
}

TEST(CatalogSlotPosition, LayoutBuilderPlacesAtSlotPositions) {
  for (const HotLayout layout :
       {HotLayout::kHorizontal, HotLayout::kVertical}) {
    for (const PlacementScheme placement :
         {PlacementScheme::kStartPosition, PlacementScheme::kOrganPipe}) {
      JukeboxConfig config;
      config.block_size_mb = 16;
      Jukebox jukebox(config);
      LayoutSpec spec;
      spec.layout = layout;
      spec.placement = placement;
      spec.num_replicas = 3;
      spec.start_position = 0.5;
      const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
      ExpectPositionsAtSlots(catalog, config.block_size_mb);
    }
  }
}

TEST(CatalogSlotPosition, RepairWritesAtSlotPositions) {
  JukeboxConfig config;
  config.timing.tape_capacity_mb = 1600;  // 100 slots per tape
  Jukebox jukebox(config);
  LayoutSpec layout;
  layout.num_replicas = 2;
  layout.start_position = 1.0;
  layout.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(jukebox, layout) * 9 / 10;
  Catalog catalog = LayoutBuilder::Build(&jukebox, layout).value();
  GreedyScheduler scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth,
                            /*dynamic=*/true);
  SimulationConfig sim;
  sim.duration_seconds = 400'000;
  sim.warmup_seconds = 0;
  sim.workload.model = QueuingModel::kOpen;
  sim.workload.mean_interarrival_seconds = 240;
  sim.workload.seed = 17;
  sim.faults.permanent_media_error_prob = 5e-3;
  sim.repair.enable_repair = true;
  sim.repair.scrub_interval_seconds = 40'000;
  sim.repair.repair_bandwidth_mb_per_s = 20;
  Simulator simulator(&jukebox, &catalog, &scheduler, sim);
  const SimulationResult result = simulator.Run();
  ASSERT_GT(result.repair.repairs_completed, 0);
  ExpectPositionsAtSlots(catalog, config.block_size_mb);
}

TEST(CatalogSlotPosition, LifecycleFillWritesAtSlotPositions) {
  JukeboxConfig config;
  Jukebox jukebox(config);
  // Hot data on a dedicated tape, cold data part-filling the rest: the
  // fill writes hot replicas into the spare slots.
  LayoutSpec replicated;
  replicated.layout = HotLayout::kVertical;
  replicated.num_replicas = 9;
  replicated.start_position = 1.0;
  LayoutSpec spare;
  spare.layout = HotLayout::kVertical;
  spare.logical_blocks_override =
      LayoutBuilder::MaxLogicalBlocks(jukebox, replicated);
  Catalog catalog = LayoutBuilder::Build(&jukebox, spare).value();
  const int64_t copies_before = catalog.TotalCopies();
  EnvelopeScheduler scheduler(&jukebox, &catalog, TapePolicy::kMaxBandwidth);
  SimulationConfig sim;
  sim.duration_seconds = 300'000;
  sim.warmup_seconds = 0;
  sim.workload.queue_length = 60;
  sim.workload.seed = 51;
  LifecycleConfig lifecycle;
  lifecycle.fill_budget_seconds = 240;
  LifecycleSimulator simulator(&jukebox, &catalog, &scheduler, sim,
                               lifecycle);
  simulator.Run();
  ASSERT_GT(catalog.TotalCopies(), copies_before);
  ExpectPositionsAtSlots(catalog, config.block_size_mb);
}

}  // namespace
}  // namespace tapejuke
