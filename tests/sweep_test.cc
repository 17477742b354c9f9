// Unit tests for the Sweep service list (forward + reverse phases).

#include "sched/sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace tapejuke {
namespace {

Request Req(RequestId id, BlockId block) { return Request{id, block, 0.0}; }

ServiceEntry Entry(Position position, BlockId block, RequestId request) {
  return ServiceEntry{position, block, {Req(request, block)}};
}

TEST(Sweep, StartsEmpty) {
  Sweep sweep;
  EXPECT_TRUE(sweep.empty());
  EXPECT_EQ(sweep.size(), 0u);
  EXPECT_FALSE(sweep.Pop().has_value());
}

TEST(Sweep, PopsForwardThenReverse) {
  Sweep sweep;
  sweep.AppendForward(Entry(100, 1, 1));
  sweep.AppendForward(Entry(200, 2, 2));
  sweep.AppendReverse(Entry(80, 3, 3));
  sweep.AppendReverse(Entry(40, 4, 4));
  EXPECT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep.phase(), Sweep::Phase::kForward);
  EXPECT_EQ(sweep.Pop()->position, 100);
  EXPECT_EQ(sweep.Pop()->position, 200);
  EXPECT_EQ(sweep.phase(), Sweep::Phase::kReverse);
  EXPECT_EQ(sweep.Pop()->position, 80);
  EXPECT_EQ(sweep.Pop()->position, 40);
  EXPECT_TRUE(sweep.empty());
}

TEST(SweepDeathTest, ForwardAppendMustAscend) {
  Sweep sweep;
  sweep.AppendForward(Entry(100, 1, 1));
  EXPECT_DEATH(sweep.AppendForward(Entry(50, 2, 2)), "ascending");
}

TEST(SweepDeathTest, ReverseAppendMustDescend) {
  Sweep sweep;
  sweep.AppendReverse(Entry(100, 1, 1));
  EXPECT_DEATH(sweep.AppendReverse(Entry(200, 2, 2)), "descending");
}

TEST(Sweep, InsertAheadInForwardPhase) {
  Sweep sweep;
  sweep.AppendForward(Entry(100, 1, 1));
  sweep.AppendForward(Entry(300, 3, 3));
  // Head at 50: 200 is ahead, inserts between the two entries.
  EXPECT_TRUE(sweep.InsertRequest(Req(9, 9), 200, 50, true));
  EXPECT_EQ(sweep.Pop()->position, 100);
  EXPECT_EQ(sweep.Pop()->position, 200);
  EXPECT_EQ(sweep.Pop()->position, 300);
}

TEST(Sweep, InsertBehindHeadGoesToReversePhase) {
  Sweep sweep;
  sweep.AppendForward(Entry(200, 1, 1));
  EXPECT_TRUE(sweep.InsertRequest(Req(9, 9), 100, 150, true));
  EXPECT_EQ(sweep.Pop()->position, 200);  // forward first
  EXPECT_EQ(sweep.Pop()->position, 100);  // then back down
}

TEST(Sweep, InsertBehindHeadRejectedWithoutReversePhase) {
  Sweep sweep;
  sweep.AppendForward(Entry(200, 1, 1));
  EXPECT_FALSE(sweep.InsertRequest(Req(9, 9), 100, 150, false));
  EXPECT_EQ(sweep.size(), 1u);
}

TEST(Sweep, InsertDuringReversePhaseOnlyBelowHead) {
  Sweep sweep;
  sweep.AppendReverse(Entry(300, 1, 1));
  sweep.AppendReverse(Entry(100, 2, 2));
  // Head at 400 moving down: 200 fits between, 350... also below head.
  EXPECT_TRUE(sweep.InsertRequest(Req(9, 9), 200, 400, true));
  // 500 is above the head: rejected in the reverse phase.
  EXPECT_FALSE(sweep.InsertRequest(Req(10, 10), 500, 400, true));
  EXPECT_EQ(sweep.Pop()->position, 300);
  EXPECT_EQ(sweep.Pop()->position, 200);
  EXPECT_EQ(sweep.Pop()->position, 100);
}

TEST(Sweep, InsertJoinsExistingBlockEntry) {
  Sweep sweep;
  sweep.AppendForward(Entry(100, 7, 1));
  // A second request for block 7 joins the same read, even if the position
  // test would fail (the read is already scheduled).
  EXPECT_TRUE(sweep.InsertRequest(Req(2, 7), 100, 150, false));
  const ServiceEntry entry = *sweep.Pop();
  EXPECT_EQ(entry.requests.size(), 2u);
}

TEST(SweepDeathTest, JoiningAnotherBlocksPositionAborts) {
  Sweep sweep;
  sweep.AppendForward(Entry(100, 7, 1));
  EXPECT_DEATH(sweep.InsertRequest(Req(2, 8), 100, 50, true),
               "cannot share position");
}

TEST(Sweep, IsAheadMirrorsInsertability) {
  Sweep sweep;
  sweep.AppendForward(Entry(200, 1, 1));
  EXPECT_TRUE(sweep.IsAhead(250, 100, true));
  EXPECT_TRUE(sweep.IsAhead(50, 100, true));
  EXPECT_FALSE(sweep.IsAhead(50, 100, false));
  Sweep empty;
  EXPECT_FALSE(empty.IsAhead(50, 0, true));
}

TEST(Sweep, RemoveBlock) {
  Sweep sweep;
  sweep.AppendForward(Entry(100, 1, 1));
  sweep.AppendForward(Entry(200, 2, 2));
  sweep.AppendReverse(Entry(50, 3, 3));
  const auto removed = sweep.RemoveAt(200);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->block, 2);
  EXPECT_EQ(removed->position, 200);
  EXPECT_EQ(sweep.size(), 2u);
  EXPECT_FALSE(sweep.RemoveAt(990).has_value());
  EXPECT_TRUE(sweep.RemoveAt(50).has_value());
}

TEST(Sweep, FindBlockSearchesBothPhases) {
  // A block is found by its position in either phase: a request for a
  // scheduled block joins its entry even where a fresh insert would be
  // refused (head past it, reverse phase disallowed).
  Sweep sweep;
  sweep.AppendForward(Entry(100, 1, 1));
  sweep.AppendReverse(Entry(50, 2, 2));
  EXPECT_TRUE(sweep.InsertRequest(Req(11, 1), 100, 150, false));
  EXPECT_TRUE(sweep.InsertRequest(Req(12, 2), 50, 150, false));
  // An absent key gives nothing.
  EXPECT_FALSE(sweep.InsertRequest(Req(13, 3), 75, 150, false));
  EXPECT_EQ(sweep.size(), 2u);
  EXPECT_EQ(sweep.forward().front().requests.size(), 2u);
  EXPECT_EQ(sweep.reverse().front().requests.size(), 2u);
}

TEST(Sweep, RemoveAtFromReversePhaseKeepsOrder) {
  Sweep sweep;
  sweep.AppendForward(Entry(400, 4, 4));
  sweep.AppendReverse(Entry(300, 3, 3));
  sweep.AppendReverse(Entry(200, 2, 2));
  sweep.AppendReverse(Entry(100, 1, 1));
  const auto removed = sweep.RemoveAt(200);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(removed->block, 2);
  EXPECT_EQ(sweep.Positions(), (std::vector<Position>{400, 300, 100}));
  // A second remove at the same position finds nothing.
  EXPECT_FALSE(sweep.RemoveAt(200).has_value());
  EXPECT_EQ(sweep.size(), 3u);
}

TEST(Sweep, InsertAtRemovedPositionCreatesFreshEntry) {
  // With no block index there is nothing stale to consult: once the entry
  // at a position is removed, a request there opens a new entry.
  Sweep sweep;
  sweep.AppendForward(Entry(100, 1, 1));
  sweep.AppendForward(Entry(200, 2, 2));
  ASSERT_TRUE(sweep.RemoveAt(100).has_value());
  EXPECT_TRUE(sweep.InsertRequest(Req(7, 9), 100, 50, true));
  ASSERT_EQ(sweep.size(), 2u);
  const ServiceEntry& entry = sweep.forward().front();
  EXPECT_EQ(entry.position, 100);
  EXPECT_EQ(entry.block, 9);
  ASSERT_EQ(entry.requests.size(), 1u);
  EXPECT_EQ(entry.requests.front().id, 7);
}

TEST(Sweep, RandomizedInsertRemoveMatchesPositionMap) {
  // Random inserts and position-keyed removes against two std::map phase
  // models. A sentinel forward entry that is never removed keeps the
  // forward phase active, so with the head at kHead a fresh position at or
  // above it lands in the forward phase and one below it in the reverse
  // phase; a position already scheduled joins its entry. Block ids are
  // position + kBlockOffset, so no two blocks share a position.
  constexpr Position kHead = 500;
  constexpr Position kSentinel = 10'000;
  constexpr BlockId kBlockOffset = 1'000'000;
  Sweep sweep;
  sweep.AppendForward(Entry(kSentinel, kSentinel + kBlockOffset, 0));
  std::map<Position, size_t> forward;  // position -> request count
  std::map<Position, size_t> reverse;
  uint64_t state = 2024;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  RequestId id = 1;
  for (int step = 0; step < 4000; ++step) {
    const Position position = static_cast<Position>(next(1000));
    if (next(3) != 0) {
      ASSERT_TRUE(sweep.InsertRequest(Req(id++, position + kBlockOffset),
                                      position, kHead, true));
      auto& phase = position >= kHead ? forward : reverse;
      ++phase[position];
    } else {
      const auto removed = sweep.RemoveAt(position);
      auto& phase = position >= kHead ? forward : reverse;
      const auto it = phase.find(position);
      ASSERT_EQ(removed.has_value(), it != phase.end()) << position;
      if (removed.has_value()) {
        EXPECT_EQ(removed->position, position);
        EXPECT_EQ(removed->block, position + kBlockOffset);
        EXPECT_EQ(removed->requests.size(), it->second);
        phase.erase(it);
      }
    }
    ASSERT_EQ(sweep.size(), forward.size() + reverse.size() + 1);
  }
  // Execution order: ascending forward (sentinel last), then descending
  // reverse, each entry carrying every request that joined it.
  std::vector<std::pair<Position, size_t>> expected(forward.begin(),
                                                    forward.end());
  expected.emplace_back(kSentinel, 1);
  expected.insert(expected.end(), reverse.rbegin(), reverse.rend());
  const std::vector<ServiceEntry> entries = sweep.Entries();
  ASSERT_EQ(entries.size(), expected.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].position, expected[i].first) << i;
    EXPECT_EQ(entries[i].requests.size(), expected[i].second) << i;
  }
}

TEST(Sweep, EntriesAndPositionsInExecutionOrder) {
  Sweep sweep;
  sweep.AppendForward(Entry(100, 1, 1));
  sweep.AppendForward(Entry(200, 2, 2));
  sweep.AppendReverse(Entry(50, 3, 3));
  const std::vector<Position> positions = sweep.Positions();
  ASSERT_EQ(positions.size(), 3u);
  EXPECT_EQ(positions[0], 100);
  EXPECT_EQ(positions[1], 200);
  EXPECT_EQ(positions[2], 50);
  EXPECT_EQ(sweep.Entries().size(), 3u);
}

TEST(Sweep, ClearEmptiesBothPhases) {
  Sweep sweep;
  sweep.AppendForward(Entry(100, 1, 1));
  sweep.AppendReverse(Entry(50, 2, 2));
  sweep.Clear();
  EXPECT_TRUE(sweep.empty());
}

}  // namespace
}  // namespace tapejuke
