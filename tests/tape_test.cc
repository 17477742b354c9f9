// Unit tests for Tape and Drive.

#include "tape/tape.h"

#include <gtest/gtest.h>

#include "tape/drive.h"
#include "tape/timing_model.h"

namespace tapejuke {
namespace {

TEST(Tape, SlotGeometry) {
  Tape tape(/*id=*/3, /*capacity_mb=*/7168, /*block_size_mb=*/16);
  EXPECT_EQ(tape.id(), 3);
  EXPECT_EQ(tape.num_slots(), 448);
  EXPECT_EQ(tape.num_blocks(), 0);
  EXPECT_EQ(tape.PositionOfSlot(0), 0);
  EXPECT_EQ(tape.PositionOfSlot(10), 160);
  EXPECT_EQ(tape.EndPositionOfSlot(10), 176);
  EXPECT_EQ(tape.SlotOfPosition(160), 10);
}

TEST(Tape, PlaceAndLookup) {
  Tape tape(0, 160, 16);
  ASSERT_TRUE(tape.PlaceBlock(100, 2).ok());
  EXPECT_EQ(tape.num_blocks(), 1);
  EXPECT_EQ(tape.BlockAtSlot(2), 100);
  EXPECT_EQ(tape.BlockAtSlot(3), kInvalidBlock);
  ASSERT_TRUE(tape.SlotOf(100).has_value());
  EXPECT_EQ(*tape.SlotOf(100), 2);
  EXPECT_FALSE(tape.SlotOf(999).has_value());
}

TEST(Tape, RejectsOccupiedSlot) {
  Tape tape(0, 160, 16);
  ASSERT_TRUE(tape.PlaceBlock(1, 0).ok());
  const Status s = tape.PlaceBlock(2, 0);
  EXPECT_EQ(s.code(), StatusCode::kCapacityExceeded);
}

TEST(Tape, RejectsDuplicateBlockOnSameTape) {
  Tape tape(0, 160, 16);
  ASSERT_TRUE(tape.PlaceBlock(1, 0).ok());
  // The paper's replication model: at most one copy per tape.
  EXPECT_FALSE(tape.PlaceBlock(1, 5).ok());
}

TEST(Tape, RejectsOutOfRangeSlot) {
  Tape tape(0, 160, 16);
  EXPECT_EQ(tape.PlaceBlock(1, 10).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(tape.PlaceBlock(1, -1).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(tape.PlaceBlock(-5, 0).code(), StatusCode::kInvalidArgument);
}

TEST(Tape, ClearSlotFreesBlock) {
  Tape tape(0, 160, 16);
  ASSERT_TRUE(tape.PlaceBlock(7, 4).ok());
  tape.ClearSlot(4);
  EXPECT_EQ(tape.num_blocks(), 0);
  EXPECT_FALSE(tape.SlotOf(7).has_value());
  EXPECT_TRUE(tape.PlaceBlock(7, 4).ok());
  // Clearing an empty slot changes nothing.
  tape.ClearSlot(5);
  EXPECT_EQ(tape.num_blocks(), 1);
  // A cleared block may come back in another slot.
  tape.ClearSlot(4);
  ASSERT_TRUE(tape.PlaceBlock(7, 9).ok());
  EXPECT_EQ(tape.SlotOf(7), 9);
}

TEST(Tape, BlockIdsFarApartKeepOneCopyEach) {
  // Block ids are not bounded by the tape's slot count: the per-block
  // membership bits grow to the largest id placed.
  Tape tape(0, 160, 16);
  const BlockId ids[] = {0, 63, 64, 1'000'003, 5};
  for (int64_t slot = 0; slot < 5; ++slot) {
    ASSERT_TRUE(tape.PlaceBlock(ids[slot], slot).ok());
  }
  EXPECT_EQ(tape.num_blocks(), 5);
  for (int64_t slot = 0; slot < 5; ++slot) {
    EXPECT_EQ(tape.SlotOf(ids[slot]), slot);
    EXPECT_EQ(tape.PlaceBlock(ids[slot], 9).code(),
              StatusCode::kInvalidArgument);
  }
  EXPECT_FALSE(tape.SlotOf(62).has_value());
  EXPECT_FALSE(tape.SlotOf(65).has_value());
  EXPECT_FALSE(tape.SlotOf(2'000'000).has_value());
  EXPECT_FALSE(tape.SlotOf(-1).has_value());
  tape.ClearSlot(3);
  EXPECT_FALSE(tape.SlotOf(1'000'003).has_value());
  EXPECT_EQ(tape.SlotOf(64), 2);
  EXPECT_EQ(tape.num_blocks(), 4);
}

class DriveTest : public ::testing::Test {
 protected:
  TimingModel model_{TimingParams::Exabyte8505XL()};
  Drive drive_{&model_};
};

TEST_F(DriveTest, StartsEmpty) {
  EXPECT_FALSE(drive_.has_tape());
  EXPECT_EQ(drive_.loaded_tape(), kInvalidTape);
  EXPECT_EQ(drive_.head(), 0);
}

TEST_F(DriveTest, LoadLocateReadSequence) {
  EXPECT_DOUBLE_EQ(drive_.Load(2), 42.0);
  EXPECT_TRUE(drive_.has_tape());
  EXPECT_EQ(drive_.loaded_tape(), 2);

  // Forward locate 100 MB: long regime.
  EXPECT_DOUBLE_EQ(drive_.LocateTo(100), 14.342 + 0.028 * 100);
  EXPECT_EQ(drive_.head(), 100);
  // Read after forward locate: startup 0.38.
  EXPECT_DOUBLE_EQ(drive_.Read(16), 0.38 + 1.77 * 16);
  EXPECT_EQ(drive_.head(), 116);
  // Contiguous read streams with no startup.
  EXPECT_DOUBLE_EQ(drive_.Read(16), 1.77 * 16);
  EXPECT_EQ(drive_.head(), 132);
}

TEST_F(DriveTest, ReadAfterReverseLocateHasNoStartup) {
  drive_.Load(0);
  drive_.LocateTo(1000);
  drive_.LocateTo(500);  // reverse
  EXPECT_DOUBLE_EQ(drive_.Read(16), 1.77 * 16);
}

TEST_F(DriveTest, ReadAtCombinesLocateAndRead) {
  drive_.Load(0);
  const double combined = drive_.ReadAt(200, 16);
  EXPECT_DOUBLE_EQ(combined,
                   (14.342 + 0.028 * 200) + (0.38 + 1.77 * 16));
  EXPECT_EQ(drive_.head(), 216);
}

TEST_F(DriveTest, RewindReturnsToZeroWithBotOverhead) {
  drive_.Load(0);
  drive_.LocateTo(2000);
  EXPECT_DOUBLE_EQ(drive_.Rewind(), 13.74 + 0.0286 * 2000 + 21.0);
  EXPECT_EQ(drive_.head(), 0);
}

TEST_F(DriveTest, EjectAfterRewind) {
  drive_.Load(1);
  drive_.LocateTo(64);
  drive_.Rewind();
  EXPECT_DOUBLE_EQ(drive_.Eject(), 19.0);
  EXPECT_FALSE(drive_.has_tape());
}

TEST_F(DriveTest, ZeroDistanceLocateIsFree) {
  drive_.Load(0);
  drive_.LocateTo(100);
  EXPECT_DOUBLE_EQ(drive_.LocateTo(100), 0.0);
}

using DriveDeathTest = DriveTest;

TEST_F(DriveDeathTest, EjectWithoutRewindAborts) {
  drive_.Load(0);
  drive_.LocateTo(100);
  EXPECT_DEATH(drive_.Eject(), "rewound before eject");
}

TEST_F(DriveDeathTest, OperationsWithoutTapeAbort) {
  EXPECT_DEATH(drive_.LocateTo(1), "no tape");
  EXPECT_DEATH(drive_.Read(16), "no tape");
}

TEST_F(DriveDeathTest, DoubleLoadAborts) {
  drive_.Load(0);
  EXPECT_DEATH(drive_.Load(1), "occupied");
}

}  // namespace
}  // namespace tapejuke
