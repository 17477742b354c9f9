// Unit tests for the Sweep service list (forward + reverse phases).

#include "sched/sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace tapejuke {
namespace {

constexpr Sweep::Phase kForward = Sweep::Phase::kForward;
constexpr Sweep::Phase kReverse = Sweep::Phase::kReverse;

Request Req(RequestId id, BlockId block) { return Request{id, block, 0.0}; }

std::vector<RequestId> Ids(std::span<const Request> requests) {
  std::vector<RequestId> ids;
  for (const Request& request : requests) ids.push_back(request.id);
  return ids;
}

TEST(Sweep, StartsEmpty) {
  Sweep sweep;
  EXPECT_TRUE(sweep.empty());
  EXPECT_EQ(sweep.size(), 0u);
  EXPECT_FALSE(sweep.Pop().has_value());
  EXPECT_FALSE(sweep.OuterEdge().has_value());
}

TEST(Sweep, PopsForwardThenReverse) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 200, Req(2, 2));
  sweep.Add(kReverse, 80, Req(3, 3));
  sweep.Add(kReverse, 40, Req(4, 4));
  EXPECT_EQ(sweep.size(), 4u);
  EXPECT_EQ(sweep.phase(), Sweep::Phase::kForward);
  EXPECT_EQ(sweep.Pop()->position, 100);
  EXPECT_EQ(sweep.Pop()->position, 200);
  EXPECT_EQ(sweep.phase(), Sweep::Phase::kReverse);
  EXPECT_EQ(sweep.Pop()->position, 80);
  EXPECT_EQ(sweep.Pop()->position, 40);
  EXPECT_TRUE(sweep.empty());
}

TEST(Sweep, AddInAnyOrderPopsInPhaseOrder) {
  // The phases are ordered by position, not by the order of the adds.
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 50, Req(2, 2));
  sweep.Add(kReverse, 10, Req(3, 3));
  sweep.Add(kReverse, 30, Req(4, 4));
  EXPECT_EQ(sweep.Positions(), (std::vector<Position>{50, 100, 30, 10}));
  EXPECT_EQ(sweep.Pop()->position, 50);
  EXPECT_EQ(sweep.Pop()->position, 100);
  EXPECT_EQ(sweep.Pop()->position, 30);
  EXPECT_EQ(sweep.Pop()->position, 10);
}

TEST(Sweep, AddJoinsTheScheduledEntryInOrder) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 7));
  sweep.Add(kForward, 200, Req(2, 8));
  sweep.Add(kForward, 100, Req(3, 7));
  EXPECT_EQ(sweep.size(), 2u);
  const std::optional<ServiceEntry> entry = sweep.Pop();
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->block, 7);
  EXPECT_EQ(Ids(entry->requests), (std::vector<RequestId>{1, 3}));
}

TEST(Sweep, PositionsAreSlotsTimesTheBlockSize) {
  Sweep sweep(16);
  sweep.Add(kForward, 48, Req(1, 3));
  sweep.Add(kReverse, 16, Req(2, 1));
  EXPECT_TRUE(sweep.InsertRequest(Req(3, 5), 80, 32, true));
  EXPECT_EQ(sweep.Positions(), (std::vector<Position>{48, 80, 16}));
  // A position between slots holds nothing.
  EXPECT_FALSE(sweep.RemoveAt(40).has_value());
  EXPECT_EQ(sweep.RemoveAt(80)->block, 5);
}

TEST(SweepDeathTest, AddingAnotherBlocksPositionAborts) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 7));
  EXPECT_DEATH(sweep.Add(kForward, 100, Req(2, 8)), "cannot share position");
}

TEST(SweepDeathTest, AddingASlotToBothPhasesAborts) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 7));
  EXPECT_DEATH(sweep.Add(kReverse, 100, Req(2, 7)), "other phase");
  Sweep reverse;
  reverse.Add(kReverse, 100, Req(1, 7));
  EXPECT_DEATH(reverse.Add(kForward, 100, Req(2, 7)), "other phase");
}

TEST(SweepDeathTest, AddingAnUnalignedPositionAborts) {
  Sweep sweep(16);
  EXPECT_DEATH(sweep.Add(kForward, 40, Req(1, 7)),
               "not a multiple of the block size");
  EXPECT_DEATH(sweep.Add(kForward, -16, Req(1, 7)),
               "not a multiple of the block size");
}

TEST(Sweep, InsertAheadInForwardPhase) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 300, Req(3, 3));
  // Head at 50: 200 is ahead, inserts between the two entries.
  EXPECT_TRUE(sweep.InsertRequest(Req(9, 9), 200, 50, true));
  EXPECT_EQ(sweep.Pop()->position, 100);
  EXPECT_EQ(sweep.Pop()->position, 200);
  EXPECT_EQ(sweep.Pop()->position, 300);
}

TEST(Sweep, InsertBelowTheLastPoppedSlotPopsNext) {
  // Another drive's head can trail its last popped entry (the read is
  // still locating), so a forward insert may land below the pop cursor.
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 300, Req(3, 3));
  EXPECT_EQ(sweep.Pop()->position, 100);
  EXPECT_TRUE(sweep.InsertRequest(Req(9, 9), 60, 50, true));
  EXPECT_EQ(sweep.Pop()->position, 60);
  EXPECT_EQ(sweep.Pop()->position, 300);
  EXPECT_TRUE(sweep.empty());
}

TEST(Sweep, InsertBehindHeadGoesToReversePhase) {
  Sweep sweep;
  sweep.Add(kForward, 200, Req(1, 1));
  EXPECT_TRUE(sweep.InsertRequest(Req(9, 9), 100, 150, true));
  EXPECT_EQ(sweep.Pop()->position, 200);  // forward first
  EXPECT_EQ(sweep.Pop()->position, 100);  // then back down
}

TEST(Sweep, InsertBehindHeadRejectedWithoutReversePhase) {
  Sweep sweep;
  sweep.Add(kForward, 200, Req(1, 1));
  EXPECT_FALSE(sweep.InsertRequest(Req(9, 9), 100, 150, false));
  EXPECT_EQ(sweep.size(), 1u);
}

TEST(Sweep, InsertDuringReversePhaseOnlyBelowHead) {
  Sweep sweep;
  sweep.Add(kReverse, 300, Req(1, 1));
  sweep.Add(kReverse, 100, Req(2, 2));
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
  sweep.Add(kForward, 100, Req(1, 7));
  // A second request for block 7 joins the same read, even if the position
  // test would fail (the read is already scheduled).
  EXPECT_TRUE(sweep.InsertRequest(Req(2, 7), 100, 150, false));
  const ServiceEntry entry = *sweep.Pop();
  EXPECT_EQ(entry.requests.size(), 2u);
}

TEST(SweepDeathTest, JoiningAnotherBlocksPositionAborts) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 7));
  EXPECT_DEATH(sweep.InsertRequest(Req(2, 8), 100, 50, true),
               "cannot share position");
}

TEST(Sweep, IsAheadMirrorsInsertability) {
  Sweep sweep;
  sweep.Add(kForward, 200, Req(1, 1));
  EXPECT_TRUE(sweep.IsAhead(250, 100, true));
  EXPECT_TRUE(sweep.IsAhead(50, 100, true));
  EXPECT_FALSE(sweep.IsAhead(50, 100, false));
  Sweep empty;
  EXPECT_FALSE(empty.IsAhead(50, 0, true));
}

TEST(Sweep, RemoveBlock) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 200, Req(2, 2));
  sweep.Add(kReverse, 50, Req(3, 3));
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
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kReverse, 50, Req(2, 2));
  EXPECT_TRUE(sweep.InsertRequest(Req(11, 1), 100, 150, false));
  EXPECT_TRUE(sweep.InsertRequest(Req(12, 2), 50, 150, false));
  // An absent key gives nothing.
  EXPECT_FALSE(sweep.InsertRequest(Req(13, 3), 75, 150, false));
  EXPECT_EQ(sweep.size(), 2u);
  const std::vector<Sweep::OwnedEntry> entries = sweep.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].requests.size(), 2u);  // the forward entry
  EXPECT_EQ(entries[1].requests.size(), 2u);  // the reverse entry
}

TEST(Sweep, RemoveAtFromReversePhaseKeepsOrder) {
  Sweep sweep;
  sweep.Add(kForward, 400, Req(4, 4));
  sweep.Add(kReverse, 300, Req(3, 3));
  sweep.Add(kReverse, 200, Req(2, 2));
  sweep.Add(kReverse, 100, Req(1, 1));
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
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 200, Req(2, 2));
  ASSERT_TRUE(sweep.RemoveAt(100).has_value());
  EXPECT_TRUE(sweep.InsertRequest(Req(7, 9), 100, 50, true));
  ASSERT_EQ(sweep.size(), 2u);
  const Sweep::OwnedEntry entry = sweep.Entries().front();
  EXPECT_EQ(entry.position, 100);
  EXPECT_EQ(entry.block, 9);
  ASSERT_EQ(entry.requests.size(), 1u);
  EXPECT_EQ(entry.requests.front().id, 7);
}

TEST(Sweep, PoppedViewOutlivesLaterInsertsRemovesAndDrain) {
  // A popped entry is the read in flight: settling it may join, open and
  // remove entries of the same sweep, and a fault drains it. None of that
  // may touch the popped view; only the next Pop replaces it.
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 100, Req(2, 1));
  sweep.Add(kForward, 200, Req(3, 2));
  sweep.Add(kReverse, 50, Req(4, 3));
  const std::optional<ServiceEntry> popped = sweep.Pop();
  ASSERT_TRUE(popped.has_value());
  const auto expect_unchanged = [&] {
    EXPECT_EQ(popped->position, 100);
    EXPECT_EQ(popped->block, 1);
    EXPECT_EQ(Ids(popped->requests), (std::vector<RequestId>{1, 2}));
  };
  expect_unchanged();
  EXPECT_TRUE(sweep.InsertRequest(Req(5, 2), 200, 150, true));  // joins
  expect_unchanged();
  EXPECT_TRUE(sweep.InsertRequest(Req(6, 4), 300, 150, true));  // opens
  expect_unchanged();
  const std::optional<ServiceEntry> removed = sweep.RemoveAt(200);
  ASSERT_TRUE(removed.has_value());
  EXPECT_EQ(Ids(removed->requests), (std::vector<RequestId>{3, 5}));
  expect_unchanged();
  std::vector<Request> drained;
  sweep.Drain(&drained);
  EXPECT_EQ(Ids(drained), (std::vector<RequestId>{6, 4}));
  EXPECT_TRUE(sweep.empty());
  expect_unchanged();
  // The removed view is likewise untouched by everything but RemoveAt.
  EXPECT_EQ(Ids(removed->requests), (std::vector<RequestId>{3, 5}));
  // Refilled after the drain, the sweep serves from fresh runs.
  sweep.Add(kForward, 100, Req(7, 1));
  expect_unchanged();
  EXPECT_EQ(Ids(sweep.Pop()->requests), (std::vector<RequestId>{7}));
}

TEST(Sweep, DrainReturnsRequestsInExecutionOrder) {
  Sweep sweep;
  sweep.Add(kReverse, 20, Req(1, 2));
  sweep.Add(kForward, 300, Req(2, 30));
  sweep.Add(kForward, 100, Req(3, 10));
  sweep.Add(kReverse, 40, Req(4, 4));
  sweep.Add(kForward, 300, Req(5, 30));
  sweep.Add(kReverse, 20, Req(6, 2));
  std::vector<Request> drained = {Req(99, 99)};  // Drain appends
  sweep.Drain(&drained);
  // Forward ascending (100, 300), then reverse descending (40, 20); each
  // entry's requests in the order they joined.
  EXPECT_EQ(Ids(drained), (std::vector<RequestId>{99, 3, 2, 5, 4, 1, 6}));
  EXPECT_TRUE(sweep.empty());
  EXPECT_FALSE(sweep.Pop().has_value());
}

TEST(Sweep, OuterEdgeIsTheFarthestEntryOfEitherPhase) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 200, Req(2, 2));
  sweep.Add(kReverse, 50, Req(3, 3));
  EXPECT_EQ(sweep.OuterEdge()->position, 200);
  EXPECT_EQ(sweep.OuterEdge()->block, 2);
  sweep.Add(kReverse, 90, Req(4, 9));
  EXPECT_EQ(sweep.OuterEdge()->position, 200);
  ASSERT_TRUE(sweep.RemoveAt(200).has_value());
  ASSERT_TRUE(sweep.RemoveAt(100).has_value());
  // Only the reverse phase is left: its first entry is the edge.
  EXPECT_EQ(sweep.OuterEdge()->position, 90);
  EXPECT_EQ(sweep.OuterEdge()->block, 9);
}

TEST(Sweep, RandomizedInsertRemoveMatchesPositionMap) {
  // Random inserts, position-keyed removes, pops and drains against two
  // std::map phase models (position -> request ids). A sentinel forward
  // entry keeps the forward phase active until a pop reaches it; while it
  // is, a fresh position at or above kHead lands in the forward phase and
  // one below it in the reverse phase. Once only the reverse phase is
  // left, only positions below kHead are admitted. A position already
  // scheduled joins its entry. The sentinel is re-added whenever the
  // sweep empties. Block ids are position + kBlockOffset, so no two blocks
  // share a position. The last popped entry's view is checked after every
  // step until the next pop.
  constexpr Position kHead = 500;
  constexpr Position kSentinel = 10'000;
  constexpr BlockId kBlockOffset = 1'000'000;
  using Model = std::map<Position, std::vector<RequestId>>;
  Sweep sweep;
  Model forward;
  Model reverse;
  RequestId id = 1;
  const auto add_sentinel = [&] {
    sweep.Add(kForward, kSentinel, Req(id, kSentinel + kBlockOffset));
    forward[kSentinel].push_back(id++);
  };
  add_sentinel();
  uint64_t state = 2024;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  std::optional<ServiceEntry> popped;
  std::vector<RequestId> popped_ids;
  int pops = 0;
  int drains = 0;
  for (int step = 0; step < 6000; ++step) {
    const Position position = static_cast<Position>(next(1000));
    const uint64_t op = next(100);
    if (op < 55) {
      Model* phase = forward.count(position) != 0   ? &forward
                     : reverse.count(position) != 0 ? &reverse
                     : !forward.empty() && position >= kHead ? &forward
                     : position < kHead                      ? &reverse
                                                             : nullptr;
      const bool inserted = sweep.InsertRequest(
          Req(id, position + kBlockOffset), position, kHead, true);
      ASSERT_EQ(inserted, phase != nullptr) << position;
      if (inserted) (*phase)[position].push_back(id);
      ++id;
    } else if (op < 75) {
      const auto removed = sweep.RemoveAt(position);
      Model& phase = forward.count(position) != 0 ? forward : reverse;
      const auto it = phase.find(position);
      ASSERT_EQ(removed.has_value(), it != phase.end()) << position;
      if (removed.has_value()) {
        EXPECT_EQ(removed->position, position);
        EXPECT_EQ(removed->block, position + kBlockOffset);
        EXPECT_EQ(Ids(removed->requests), it->second);
        phase.erase(it);
      }
    } else if (op < 98) {
      popped = sweep.Pop();
      ASSERT_TRUE(popped.has_value());
      const auto it = !forward.empty() ? forward.begin()
                                       : std::prev(reverse.end());
      EXPECT_EQ(popped->position, it->first);
      EXPECT_EQ(popped->block, it->first + kBlockOffset);
      popped_ids = it->second;
      EXPECT_EQ(Ids(popped->requests), popped_ids);
      (!forward.empty() ? forward : reverse).erase(it);
      ++pops;
    } else {
      std::vector<RequestId> expected;
      for (const auto& [pos, ids] : forward) {
        expected.insert(expected.end(), ids.begin(), ids.end());
      }
      for (auto it = reverse.rbegin(); it != reverse.rend(); ++it) {
        expected.insert(expected.end(), it->second.begin(), it->second.end());
      }
      std::vector<Request> drained;
      sweep.Drain(&drained);
      EXPECT_EQ(Ids(drained), expected);
      forward.clear();
      reverse.clear();
      ++drains;
    }
    if (popped.has_value()) {
      ASSERT_EQ(Ids(popped->requests), popped_ids) << "step " << step;
    }
    ASSERT_EQ(sweep.size(), forward.size() + reverse.size());
    if (sweep.empty()) add_sentinel();
  }
  EXPECT_GT(pops, 100);
  EXPECT_GT(drains, 10);
  // Execution order: ascending forward, then descending reverse, each
  // entry carrying every request that joined it, in order.
  std::vector<std::pair<Position, std::vector<RequestId>>> expected(
      forward.begin(), forward.end());
  expected.insert(expected.end(), reverse.rbegin(), reverse.rend());
  const std::vector<Sweep::OwnedEntry> entries = sweep.Entries();
  ASSERT_EQ(entries.size(), expected.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    EXPECT_EQ(entries[i].position, expected[i].first) << i;
    EXPECT_EQ(Ids(entries[i].requests), expected[i].second) << i;
  }
}

TEST(Sweep, EntriesAndPositionsInExecutionOrder) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kForward, 200, Req(2, 2));
  sweep.Add(kReverse, 50, Req(3, 3));
  const std::vector<Position> positions = sweep.Positions();
  ASSERT_EQ(positions.size(), 3u);
  EXPECT_EQ(positions[0], 100);
  EXPECT_EQ(positions[1], 200);
  EXPECT_EQ(positions[2], 50);
  EXPECT_EQ(sweep.Entries().size(), 3u);
}

TEST(Sweep, ClearEmptiesBothPhases) {
  Sweep sweep;
  sweep.Add(kForward, 100, Req(1, 1));
  sweep.Add(kReverse, 50, Req(2, 2));
  sweep.Clear();
  EXPECT_TRUE(sweep.empty());
  EXPECT_TRUE(sweep.Positions().empty());
}

}  // namespace
}  // namespace tapejuke
