// Unit tests for the schedule cost / effective bandwidth evaluator.

#include "sched/schedule_cost.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.h"

namespace tapejuke {
namespace {

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
      cost_.EstimateVisit(/*target=*/2, /*mounted=*/2, /*head=*/100,
                          {100, 340});
  EXPECT_DOUBLE_EQ(visit.switch_seconds, 0.0);
  EXPECT_EQ(visit.blocks, 2);
  EXPECT_EQ(visit.bytes_mb, 32);
  // First block is at the head: read with no locate, no startup.
  const double expected = 1.77 * 16 +                    // read at 100
                          (14.342 + 0.028 * (340 - 116))  // locate
                          + (0.38 + 1.77 * 16);           // read at 340
  EXPECT_DOUBLE_EQ(visit.execution_seconds, expected);
}

TEST_F(ScheduleCostTest, EstimateVisitOtherTapePaysFullSwitch) {
  const SweepCostBreakdown visit =
      cost_.EstimateVisit(/*target=*/1, /*mounted=*/0, /*head=*/500, {64});
  EXPECT_DOUBLE_EQ(visit.switch_seconds, model_.FullSwitchTime(500));
  // Sweep starts from position 0 after the load.
  EXPECT_DOUBLE_EQ(visit.execution_seconds,
                   cost_.ExecutionSeconds(0, {64}));
}

TEST_F(ScheduleCostTest, EstimateVisitNoMountedTape) {
  const SweepCostBreakdown visit =
      cost_.EstimateVisit(1, kInvalidTape, 0, {64});
  EXPECT_DOUBLE_EQ(visit.switch_seconds, model_.SwitchTime());
}

TEST_F(ScheduleCostTest, BandwidthImprovesWithBatchSize) {
  // Amortization: servicing more blocks in one visit raises the effective
  // bandwidth (same switch overhead, shared locates).
  std::vector<Position> few = {1000};
  std::vector<Position> many;
  for (Position p = 1000; p < 1000 + 16 * 20; p += 16) many.push_back(p);
  const double bw_few =
      cost_.EstimateVisit(1, 0, 0, few).BandwidthMBps();
  const double bw_many =
      cost_.EstimateVisit(1, 0, 0, many).BandwidthMBps();
  EXPECT_GT(bw_many, bw_few);
}

TEST_F(ScheduleCostTest, NearbyBlocksBeatScatteredBlocks) {
  std::vector<Position> clustered = {1000, 1016, 1032, 1048};
  std::vector<Position> scattered = {0, 2000, 4000, 6000};
  const double bw_clustered =
      cost_.EstimateVisit(1, 0, 0, clustered).BandwidthMBps();
  const double bw_scattered =
      cost_.EstimateVisit(1, 0, 0, scattered).BandwidthMBps();
  EXPECT_GT(bw_clustered, bw_scattered);
}

// Candidate builders hand EstimateVisit ascending, distinct positions; any
// other order of the same set, repeats included, must cost bit-for-bit the
// same.
TEST_F(ScheduleCostTest, EstimateVisitIgnoresOrderAndRepeats) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Position> sorted;
    for (Position p = 0; p < 16 * 400; p += 16) {
      if (rng.UniformUint64(4) == 0) sorted.push_back(p);
    }
    std::vector<Position> shuffled = sorted;
    for (const Position p : sorted) {
      if (rng.UniformUint64(3) == 0) shuffled.push_back(p);
    }
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.UniformUint64(i)]);
    }
    const Position head = 16 * static_cast<Position>(rng.UniformUint64(400));
    for (const TapeId mounted : {TapeId{1}, TapeId{0}, kInvalidTape}) {
      const SweepCostBreakdown a = cost_.EstimateVisit(1, mounted, head,
                                                       sorted);
      const SweepCostBreakdown b = cost_.EstimateVisit(1, mounted, head,
                                                       shuffled);
      EXPECT_EQ(a.switch_seconds, b.switch_seconds);
      EXPECT_EQ(a.execution_seconds, b.execution_seconds);
      EXPECT_EQ(a.blocks, b.blocks);
      EXPECT_EQ(a.bytes_mb, b.bytes_mb);
      EXPECT_EQ(a.BandwidthMBps(), b.BandwidthMBps());
      EXPECT_EQ(a.blocks, static_cast<int64_t>(sorted.size()));
    }
  }
}

// Ascending, distinct positions are walked in place; the sum must be
// bit-for-bit the one ExecutionSeconds gives on SweepOrder's copy, with the
// head below, inside and above the positions, and with the target mounted
// (sweep from the head) or not (sweep from 0 after a switch).
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
            cost_.EstimateVisit(1, mounted, head, positions);
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

}  // namespace
}  // namespace tapejuke
