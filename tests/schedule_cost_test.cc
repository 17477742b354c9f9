// Unit tests for the schedule cost / effective bandwidth evaluator.

#include "sched/schedule_cost.h"

#include <gtest/gtest.h>

#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace tapejuke {
namespace {

// The slot bitmap of block-aligned `positions` (16 MB blocks).
std::vector<uint64_t> Bits(const std::vector<Position>& positions,
                           size_t words = 0) {
  return SlotBitsAt(positions, 16, words);
}

class ScheduleCostTest : public ::testing::Test {
 protected:
  TimingModel model_{TimingParams::Exabyte8505XL()};
  ScheduleCost cost_{&model_, 16};
};

TEST_F(ScheduleCostTest, EmptyScheduleIsFree) {
  EXPECT_DOUBLE_EQ(cost_.ExecutionSeconds(0, {}), 0.0);
  const SweepCostBreakdown visit = cost_.EstimateVisit(0, 0, 0, {});
  EXPECT_DOUBLE_EQ(visit.TotalSeconds(), 0.0);
  EXPECT_DOUBLE_EQ(visit.BandwidthMBps(), 0.0);
}

TEST_F(ScheduleCostTest, SingleReadFromHead) {
  // Locate 0 -> 320 (long forward), read 16 MB with forward startup.
  const double expected =
      (14.342 + 0.028 * 320) + (0.38 + 1.77 * 16);
  EXPECT_DOUBLE_EQ(cost_.ExecutionSeconds(0, {320}), expected);
}

TEST_F(ScheduleCostTest, ConsecutiveBlocksStream) {
  // Two adjacent blocks: the second read needs no locate and no startup.
  const double expected = (14.342 + 0.028 * 320) + (0.38 + 1.77 * 16) +
                          (1.77 * 16);
  EXPECT_DOUBLE_EQ(cost_.ExecutionSeconds(0, {320, 336}), expected);
}

TEST_F(ScheduleCostTest, SweepOrderSplitsAroundHead) {
  const std::vector<Position> order =
      ScheduleCost::SweepOrder(100, {320, 16, 48, 100, 240});
  // Forward ascending from 100, then reverse descending below 100.
  const std::vector<Position> expected = {100, 240, 320, 48, 16};
  EXPECT_EQ(order, expected);
}

TEST_F(ScheduleCostTest, SweepOrderDeduplicates) {
  const std::vector<Position> order =
      ScheduleCost::SweepOrder(0, {32, 32, 16, 16});
  const std::vector<Position> expected = {16, 32};
  EXPECT_EQ(order, expected);
}

TEST_F(ScheduleCostTest, EstimateVisitSameTapeUsesHead) {
  const SweepCostBreakdown visit =
      cost_.EstimateVisit(/*target=*/2, /*mounted=*/2, /*head=*/96,
                          Bits({96, 336}));
  EXPECT_DOUBLE_EQ(visit.switch_seconds, 0.0);
  EXPECT_EQ(visit.blocks, 2);
  EXPECT_EQ(visit.bytes_mb, 32);
  // First block is at the head: read with no locate, no startup.
  const double expected = 1.77 * 16 +                    // read at 96
                          (14.342 + 0.028 * (336 - 112))  // locate
                          + (0.38 + 1.77 * 16);           // read at 336
  EXPECT_DOUBLE_EQ(visit.execution_seconds, expected);
}

TEST_F(ScheduleCostTest, EstimateVisitOtherTapePaysFullSwitch) {
  const SweepCostBreakdown visit = cost_.EstimateVisit(
      /*target=*/1, /*mounted=*/0, /*head=*/500, Bits({64}));
  EXPECT_DOUBLE_EQ(visit.switch_seconds, model_.FullSwitchTime(500));
  // Sweep starts from position 0 after the load.
  EXPECT_DOUBLE_EQ(visit.execution_seconds,
                   cost_.ExecutionSeconds(0, {64}));
}

TEST_F(ScheduleCostTest, EstimateVisitNoMountedTape) {
  const SweepCostBreakdown visit =
      cost_.EstimateVisit(1, kInvalidTape, 0, Bits({64}));
  EXPECT_DOUBLE_EQ(visit.switch_seconds, model_.SwitchTime());
}

TEST_F(ScheduleCostTest, BandwidthImprovesWithBatchSize) {
  // Amortization: servicing more blocks in one visit raises the effective
  // bandwidth (same switch overhead, shared locates).
  std::vector<Position> few = {1008};
  std::vector<Position> many;
  for (Position p = 1008; p < 1008 + 16 * 20; p += 16) many.push_back(p);
  const double bw_few =
      cost_.EstimateVisit(1, 0, 0, Bits(few)).BandwidthMBps();
  const double bw_many =
      cost_.EstimateVisit(1, 0, 0, Bits(many)).BandwidthMBps();
  EXPECT_GT(bw_many, bw_few);
}

TEST_F(ScheduleCostTest, NearbyBlocksBeatScatteredBlocks) {
  std::vector<Position> clustered = {1008, 1024, 1040, 1056};
  std::vector<Position> scattered = {0, 2000, 4000, 6000};
  const double bw_clustered =
      cost_.EstimateVisit(1, 0, 0, Bits(clustered)).BandwidthMBps();
  const double bw_scattered =
      cost_.EstimateVisit(1, 0, 0, Bits(scattered)).BandwidthMBps();
  EXPECT_GT(bw_clustered, bw_scattered);
}

// The bits are walked in place; the sum must be bit-for-bit the one
// ExecutionSeconds gives on SweepOrder's list of the same positions, with
// the head below, inside and above the positions, and with the target
// mounted (sweep from the head) or not (sweep from 0 after a switch).
TEST_F(ScheduleCostTest, EstimateVisitInPlaceMatchesSweepOrder) {
  Rng rng(23);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<Position> positions;
    if (trial > 0) {
      for (Position p = 16 * 10; p < 16 * 300; p += 16) {
        if (rng.UniformUint64(5) == 0) positions.push_back(p);
      }
    }
    const Position inside =
        16 * (10 + static_cast<Position>(rng.UniformUint64(290)));
    for (const Position head : {Position{0}, inside, Position{16 * 400}}) {
      for (const TapeId mounted : {TapeId{1}, TapeId{0}, kInvalidTape}) {
        const SweepCostBreakdown visit =
            cost_.EstimateVisit(1, mounted, head, Bits(positions, 5));
        const Position start = mounted == 1 ? head : 0;
        EXPECT_EQ(visit.execution_seconds,
                  cost_.ExecutionSeconds(
                      start, ScheduleCost::SweepOrder(start, positions)));
        EXPECT_EQ(visit.blocks, static_cast<int64_t>(positions.size()));
        EXPECT_EQ(visit.bytes_mb, visit.blocks * 16);
      }
    }
  }
}

// Randomized check of the bit walk against the oracle on a 437-slot tape
// (not a multiple of 64): word-edge slots (0, 63, 64, 127, 128, the last)
// are always set, and the head sits at 0, on a slot boundary mid-tape,
// inside a slot (unaligned, so the split rounds up), or past the last
// slot; the target is mounted, not mounted, or no tape is.
TEST_F(ScheduleCostTest, EstimateVisitBitWalkMatchesOracle) {
  constexpr int64_t kSlots = 437;
  const size_t words = (kSlots + 63) / 64;
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<Position> positions;
    for (int64_t slot = 0; slot < kSlots; ++slot) {
      const bool edge = slot == 0 || slot == 63 || slot == 64 ||
                        slot == 127 || slot == 128 || slot == kSlots - 1;
      if (edge || rng.UniformUint64(trial % 7 + 2) == 0) {
        positions.push_back(16 * slot);
      }
    }
    const std::vector<uint64_t> bits = Bits(positions, words);
    ASSERT_EQ(bits.size(), words);
    const Position k = static_cast<Position>(rng.UniformUint64(kSlots));
    for (const Position head :
         {Position{0}, 16 * k, 16 * k + 5, Position{16 * 64 + 5},
          Position{16 * kSlots}, Position{16 * kSlots + 7}}) {
      for (const TapeId mounted : {TapeId{1}, TapeId{0}, kInvalidTape}) {
        const SweepCostBreakdown visit =
            cost_.EstimateVisit(1, mounted, head, bits);
        const Position start = mounted == 1 ? head : 0;
        const std::vector<Position> order =
            ScheduleCost::SweepOrder(start, positions);
        EXPECT_EQ(visit.execution_seconds,
                  cost_.ExecutionSeconds(start, order))
            << "trial " << trial << " head " << head << " mounted "
            << mounted;
        EXPECT_EQ(visit.blocks, static_cast<int64_t>(positions.size()));
        EXPECT_EQ(visit.bytes_mb, visit.blocks * 16);
        const double switch_seconds =
            mounted == 1 ? 0.0
                         : (mounted == kInvalidTape
                                ? model_.SwitchTime()
                                : model_.FullSwitchTime(head));
        EXPECT_EQ(visit.switch_seconds, switch_seconds);
      }
    }
  }
  // An empty bitmap reads nothing, whatever the head or mount.
  for (const TapeId mounted : {TapeId{1}, TapeId{0}, kInvalidTape}) {
    const SweepCostBreakdown visit = cost_.EstimateVisit(
        1, mounted, 16 * 100 + 5, std::vector<uint64_t>(words));
    EXPECT_EQ(visit.blocks, 0);
    EXPECT_EQ(visit.bytes_mb, 0);
    EXPECT_EQ(visit.execution_seconds, 0.0);
    EXPECT_EQ(visit.BandwidthMBps(), 0.0);
  }
}

}  // namespace
}  // namespace tapejuke
