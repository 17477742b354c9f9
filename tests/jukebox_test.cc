// Unit tests for the Jukebox hardware model.

#include "tape/jukebox.h"

#include <gtest/gtest.h>

namespace tapejuke {
namespace {

JukeboxConfig SmallConfig() {
  JukeboxConfig config;
  config.num_tapes = 4;
  config.block_size_mb = 16;
  return config;
}

TEST(JukeboxConfig, ValidateCatchesBadValues) {
  JukeboxConfig c = SmallConfig();
  EXPECT_TRUE(c.Validate().ok());
  c.num_tapes = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.block_size_mb = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = SmallConfig();
  c.block_size_mb = c.timing.tape_capacity_mb + 1;
  EXPECT_FALSE(c.Validate().ok());
}

TEST(Jukebox, Geometry) {
  Jukebox jukebox(SmallConfig());
  EXPECT_EQ(jukebox.num_tapes(), 4);
  EXPECT_EQ(jukebox.slots_per_tape(), 448);
  EXPECT_EQ(jukebox.total_slots(), 4 * 448);
  EXPECT_EQ(jukebox.mounted_tape(), kInvalidTape);
}

TEST(Jukebox, FirstSwitchHasNoRewindOrEject) {
  Jukebox jukebox(SmallConfig());
  // Empty drive: robot swap + load only.
  EXPECT_DOUBLE_EQ(jukebox.SwitchTo(2), 20.0 + 42.0);
  EXPECT_EQ(jukebox.mounted_tape(), 2);
  EXPECT_EQ(jukebox.counters().tape_switches, 1);
}

TEST(Jukebox, SwitchToMountedTapeIsFree) {
  Jukebox jukebox(SmallConfig());
  jukebox.SwitchTo(1);
  EXPECT_DOUBLE_EQ(jukebox.SwitchTo(1), 0.0);
  EXPECT_EQ(jukebox.counters().tape_switches, 1);
}

TEST(Jukebox, FullSwitchIncludesRewindEjectRobotLoad) {
  Jukebox jukebox(SmallConfig());
  jukebox.SwitchTo(0);
  jukebox.ReadBlockAt(1600);  // park the head mid-tape
  const double expected_rewind = 13.74 + 0.0286 * 1616 + 21.0;
  EXPECT_DOUBLE_EQ(jukebox.SwitchTo(3), expected_rewind + 19 + 20 + 42);
  EXPECT_EQ(jukebox.head(), 0);
  EXPECT_EQ(jukebox.counters().tape_switches, 2);
  EXPECT_DOUBLE_EQ(jukebox.counters().rewind_seconds, expected_rewind);
}

TEST(Jukebox, ReadBlockAccounting) {
  Jukebox jukebox(SmallConfig());
  jukebox.SwitchTo(0);
  const double op = jukebox.ReadBlockAt(320);
  EXPECT_DOUBLE_EQ(op, (14.342 + 0.028 * 320) + (0.38 + 1.77 * 16));
  EXPECT_EQ(jukebox.head(), 336);
  EXPECT_EQ(jukebox.counters().blocks_read, 1);
  EXPECT_EQ(jukebox.counters().mb_read, 16);
  EXPECT_GT(jukebox.counters().locate_seconds, 0);
  EXPECT_GT(jukebox.counters().read_seconds, 0);
}

TEST(Jukebox, CountersBusySecondsSumComponents) {
  Jukebox jukebox(SmallConfig());
  jukebox.SwitchTo(0);
  jukebox.ReadBlockAt(100);
  jukebox.ReadBlockAt(200);
  jukebox.SwitchTo(1);
  jukebox.ReadBlockAt(50);
  const JukeboxCounters& c = jukebox.counters();
  EXPECT_DOUBLE_EQ(c.BusySeconds(), c.rewind_seconds + c.switch_seconds +
                                        c.locate_seconds + c.read_seconds);
  EXPECT_EQ(c.blocks_read, 3);
  EXPECT_EQ(c.tape_switches, 2);
}

TEST(Jukebox, ExplicitRewind) {
  Jukebox jukebox(SmallConfig());
  jukebox.SwitchTo(0);
  jukebox.ReadBlockAt(500);
  const double rewind = jukebox.Rewind();
  EXPECT_GT(rewind, 0);
  EXPECT_EQ(jukebox.head(), 0);
}

TEST(JukeboxDeathTest, BadTapeIdAborts) {
  Jukebox jukebox(SmallConfig());
  EXPECT_DEATH(jukebox.SwitchTo(99), "bad tape id");
  EXPECT_DEATH(jukebox.tape(-1), "bad tape id");
}

}  // namespace
}  // namespace tapejuke
