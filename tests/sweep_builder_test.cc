// Tests for the pending walk's extraction half: ExtractSweepForTape builds
// the chosen tape's sweep from the member list BuildTapeCandidates left.

#include "sched/sweep_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace tapejuke {
namespace {

Request Req(RequestId id, BlockId block) {
  return Request{id, block, static_cast<double>(id)};
}

/// Builds candidates over `pending` and extracts `tape`'s sweep, the way a
/// major reschedule does.
void BuildAndExtract(const Jukebox& jukebox, const Catalog& catalog,
                     TapeId tape, Position start_head,
                     const std::vector<Position>* envelope,
                     std::deque<Request>* pending, Sweep* sweep,
                     TapeCandidateSet* set) {
  BuildTapeCandidates(jukebox, catalog, *pending, envelope, set);
  ExtractSweepForTape(set, tape, start_head, pending, sweep);
}

class SweepBuilderTest : public ::testing::Test {
 protected:
  // Tape 0: blocks 0..4 at slots 0..4; block 5 at slot 8.
  // Tape 1: block 6 at slot 0; block 5 replicated at slot 2.
  SweepBuilderTest() : rig_(2) {
    for (BlockId b = 0; b < 5; ++b) rig_.Place(b, 0, b);
    rig_.Place(5, 0, 8);
    rig_.Place(6, 1, 0);
    rig_.Place(5, 1, 2);
    catalog_ = rig_.BuildCatalog();
  }

  void Extract(TapeId tape, Position start_head, std::deque<Request>* pending,
               Sweep* sweep, const std::vector<Position>* envelope = nullptr) {
    BuildAndExtract(rig_.jukebox(), *catalog_, tape, start_head, envelope,
                    pending, sweep, &set_);
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
  TapeCandidateSet set_;
};

TEST_F(SweepBuilderTest, ExtractsOnlyChosenTape) {
  std::deque<Request> pending = {Req(1, 0), Req(2, 6), Req(3, 3)};
  Sweep sweep;
  Extract(/*tape=*/0, /*start_head=*/0, &pending, &sweep);
  EXPECT_EQ(sweep.size(), 2u);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().block, 6);
}

TEST_F(SweepBuilderTest, SplitsAroundStartHead) {
  std::deque<Request> pending = {Req(1, 0), Req(2, 4), Req(3, 2)};
  Sweep sweep;
  // Head at position 48 (slot 3): slot 4 forward; slots 0 and 2 reverse.
  Extract(0, /*start_head=*/48, &pending, &sweep);
  EXPECT_EQ(sweep.Pop()->position, 64);  // forward phase
  EXPECT_EQ(sweep.Pop()->position, 32);  // reverse, descending
  EXPECT_EQ(sweep.Pop()->position, 0);
}

TEST_F(SweepBuilderTest, EnvelopeLimitFilters) {
  std::deque<Request> pending = {Req(1, 0), Req(2, 5)};
  Sweep sweep;
  // Tape 0's envelope covers slots 0..3 only.
  const std::vector<Position> envelope = {64, 160};
  Extract(0, 0, &pending, &sweep, &envelope);
  EXPECT_EQ(sweep.size(), 1u);   // block 0 only
  EXPECT_EQ(pending.size(), 1u);  // block 5 at slot 8 is outside
}

TEST_F(SweepBuilderTest, GroupsDuplicateBlocks) {
  std::deque<Request> pending = {Req(1, 2), Req(2, 2), Req(3, 2)};
  Sweep sweep;
  Extract(0, 0, &pending, &sweep);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->requests.size(), 3u);
}

TEST_F(SweepBuilderTest, EmptyPendingYieldsEmptySweep) {
  std::deque<Request> pending;
  Sweep sweep;
  Extract(0, 0, &pending, &sweep);
  EXPECT_TRUE(sweep.empty());
}

TEST_F(SweepBuilderTest, ReplicatedBlockUsesChosenTapePosition) {
  std::deque<Request> pending = {Req(1, 5)};
  Sweep sweep;
  Extract(1, 0, &pending, &sweep);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->position, 32);  // tape 1 copy at slot 2
}

TEST_F(SweepBuilderTest, PreservesPendingOrderOfLeftovers) {
  std::deque<Request> pending = {Req(3, 6), Req(1, 0), Req(2, 6)};
  Sweep sweep;
  Extract(0, 0, &pending, &sweep);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, 3);
  EXPECT_EQ(pending[1].id, 2);
}

TEST_F(SweepBuilderTest, DeadReplicaIsNotExtracted) {
  ASSERT_TRUE(catalog_->MarkReplicaDead(5, 1));
  std::deque<Request> pending = {Req(1, 5), Req(2, 6)};
  Sweep sweep;
  Extract(1, 0, &pending, &sweep);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->block, 6);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().block, 5);
}

TEST(SweepBuilderDeathTest, RequiresEmptySweep) {
  TinyRig rig(1);
  rig.Place(0, 0, 0);
  const Catalog catalog = rig.BuildCatalog();
  TapeCandidateSet set;
  std::deque<Request> pending = {Req(1, 0)};
  Sweep sweep;
  BuildAndExtract(rig.jukebox(), catalog, 0, 0, nullptr, &pending, &sweep,
                  &set);
  std::deque<Request> more = {Req(2, 0)};
  BuildTapeCandidates(rig.jukebox(), catalog, more, nullptr, &set);
  EXPECT_DEATH(ExtractSweepForTape(&set, 0, 0, &more, &sweep), "drained");
}

TEST(SweepBuilderDeathTest, RejectsQueueChangedSinceBuild) {
#ifdef NDEBUG
  GTEST_SKIP() << "the build-to-extraction checks are debug-only";
#else
  TinyRig rig(1);
  rig.Place(0, 0, 0);
  rig.Place(1, 0, 3);
  const Catalog catalog = rig.BuildCatalog();
  TapeCandidateSet set;
  std::deque<Request> pending = {Req(1, 0), Req(2, 1)};
  BuildTapeCandidates(rig.jukebox(), catalog, pending, nullptr, &set);
  pending.pop_front();
  Sweep sweep;
  EXPECT_DEATH(ExtractSweepForTape(&set, 0, 0, &pending, &sweep),
               "TJ_CHECK");
#endif
}

// --- Differential test against the catalog-walk extraction ----------------

/// The extraction as specified before member lists: walk the queue, look
/// each request's live replica on `tape` up in the catalog, keep it when its
/// block end is within `limit` (if any), and group the kept requests by
/// position, stably in queue order.
void ReferenceExtract(const Catalog& catalog, TapeId tape,
                      Position start_head, int64_t block_mb,
                      const Position* limit, std::deque<Request>* pending,
                      Sweep* sweep) {
  std::vector<std::pair<Position, Request>> extracted;
  std::deque<Request> keep;
  for (const Request& request : *pending) {
    const Replica* replica = catalog.LiveReplicaOn(request.block, tape);
    if (replica == nullptr ||
        (limit != nullptr && replica->position + block_mb > *limit)) {
      keep.push_back(request);
    } else {
      extracted.emplace_back(replica->position, request);
    }
  }
  *pending = std::move(keep);
  std::stable_sort(
      extracted.begin(), extracted.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<ServiceEntry> entries;
  for (const auto& [position, request] : extracted) {
    if (entries.empty() || entries.back().position != position) {
      entries.push_back(ServiceEntry{position, request.block, {}});
    }
    entries.back().requests.push_back(request);
  }
  for (const ServiceEntry& entry : entries) {
    if (entry.position >= start_head) sweep->AppendForward(entry);
  }
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->position < start_head) sweep->AppendReverse(*it);
  }
}

void ExpectSameSweep(const Sweep& expected, const Sweep& actual) {
  const std::vector<ServiceEntry> a = expected.Entries();
  const std::vector<ServiceEntry> b = actual.Entries();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].position, b[i].position) << "entry " << i;
    EXPECT_EQ(a[i].block, b[i].block) << "entry " << i;
    EXPECT_EQ(a[i].requests, b[i].requests) << "entry " << i;
  }
  EXPECT_EQ(expected.forward().size(), actual.forward().size());
}

TEST(SweepBuilderFuzz, MatchesCatalogWalkExtraction) {
  constexpr int32_t kTapes = 4;
  constexpr int64_t kSlots = 40;
  constexpr int64_t kBlockMb = 16;
  constexpr BlockId kBlocks = 50;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    Rng rng(seed);
    TinyRig rig(kTapes, kSlots * kBlockMb, kBlockMb);
    // Every block gets 1-3 copies on distinct tapes, at random free slots.
    std::vector<std::vector<bool>> used(kTapes,
                                        std::vector<bool>(kSlots, false));
    for (BlockId b = 0; b < kBlocks; ++b) {
      const size_t copies = 1 + rng.UniformUint64(3);
      std::vector<TapeId> tapes = {0, 1, 2, 3};
      for (size_t c = 0; c < copies; ++c) {
        std::swap(tapes[c], tapes[c + rng.UniformUint64(tapes.size() - c)]);
        const auto t = static_cast<size_t>(tapes[c]);
        auto slot = static_cast<size_t>(rng.UniformUint64(kSlots));
        while (used[t][slot]) slot = (slot + 1) % kSlots;
        used[t][slot] = true;
        rig.Place(b, tapes[c], static_cast<int64_t>(slot));
      }
    }
    Catalog catalog = rig.BuildCatalog();
    for (BlockId b = 0; b < kBlocks; ++b) {
      if (rng.UniformUint64(5) == 0) {
        catalog.MarkReplicaDead(b, catalog.ReplicasOf(b).front().tape);
      }
    }
    // Client ids count up from 0; background ids from kBackgroundIdBase.
    // Few distinct blocks, so blocks repeat within a queue.
    std::deque<Request> client;
    std::deque<Request> background;
    for (RequestId i = 0; i < 120; ++i) {
      const auto block = static_cast<BlockId>(rng.UniformUint64(kBlocks));
      if (rng.UniformUint64(3) == 0) {
        background.push_back(Request{kBackgroundIdBase + i, block, 0.0,
                                     RequestClass::kBackground});
      } else {
        client.push_back(Req(i, block));
      }
    }
    std::vector<Position> envelope(kTapes);
    for (Position& edge : envelope) {
      edge = kBlockMb * static_cast<Position>(rng.UniformUint64(kSlots + 1));
    }

    TapeCandidateSet set;
    for (const std::deque<Request>* queue : {&client, &background}) {
      for (TapeId tape = 0; tape < kTapes; ++tape) {
        for (const bool enveloped : {false, true}) {
          const Position start_head =
              kBlockMb * static_cast<Position>(rng.UniformUint64(kSlots));
          const Position* limit =
              enveloped ? &envelope[static_cast<size_t>(tape)] : nullptr;
          std::deque<Request> expected_queue = *queue;
          Sweep expected;
          ReferenceExtract(catalog, tape, start_head, kBlockMb, limit,
                           &expected_queue, &expected);
          std::deque<Request> actual_queue = *queue;
          Sweep actual;
          BuildAndExtract(rig.jukebox(), catalog, tape, start_head,
                          enveloped ? &envelope : nullptr, &actual_queue,
                          &actual, &set);
          ExpectSameSweep(expected, actual);
          EXPECT_EQ(expected_queue, actual_queue);
        }
      }
    }
  }
}

}  // namespace
}  // namespace tapejuke
