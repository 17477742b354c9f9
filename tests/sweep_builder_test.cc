// Tests for the pending walk's extraction half: ExtractSweepForTape builds
// the chosen tape's sweep from the member list BuildTapeCandidates left.

#include "sched/sweep_builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <utility>
#include <vector>

#include "layout/placement.h"
#include "test_util.h"
#include "util/counting_sort.h"
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
                     std::vector<Request>* pending, Sweep* sweep,
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

  void Extract(TapeId tape, Position start_head, std::vector<Request>* pending,
               Sweep* sweep, const std::vector<Position>* envelope = nullptr) {
    BuildAndExtract(rig_.jukebox(), *catalog_, tape, start_head, envelope,
                    pending, sweep, &set_);
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
  TapeCandidateSet set_;
};

TEST_F(SweepBuilderTest, ExtractsOnlyChosenTape) {
  std::vector<Request> pending = {Req(1, 0), Req(2, 6), Req(3, 3)};
  Sweep sweep;
  Extract(/*tape=*/0, /*start_head=*/0, &pending, &sweep);
  EXPECT_EQ(sweep.size(), 2u);
  ASSERT_EQ(pending.size(), 1u);
  EXPECT_EQ(pending.front().block, 6);
}

TEST_F(SweepBuilderTest, SplitsAroundStartHead) {
  std::vector<Request> pending = {Req(1, 0), Req(2, 4), Req(3, 2)};
  Sweep sweep;
  // Head at position 48 (slot 3): slot 4 forward; slots 0 and 2 reverse.
  Extract(0, /*start_head=*/48, &pending, &sweep);
  EXPECT_EQ(sweep.Pop()->position, 64);  // forward phase
  EXPECT_EQ(sweep.Pop()->position, 32);  // reverse, descending
  EXPECT_EQ(sweep.Pop()->position, 0);
}

TEST_F(SweepBuilderTest, EnvelopeLimitFilters) {
  std::vector<Request> pending = {Req(1, 0), Req(2, 5)};
  Sweep sweep;
  // Tape 0's envelope covers slots 0..3 only.
  const std::vector<Position> envelope = {64, 160};
  Extract(0, 0, &pending, &sweep, &envelope);
  EXPECT_EQ(sweep.size(), 1u);   // block 0 only
  EXPECT_EQ(pending.size(), 1u);  // block 5 at slot 8 is outside
}

TEST_F(SweepBuilderTest, GroupsDuplicateBlocks) {
  std::vector<Request> pending = {Req(1, 2), Req(2, 2), Req(3, 2)};
  Sweep sweep;
  Extract(0, 0, &pending, &sweep);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->requests.size(), 3u);
}

TEST_F(SweepBuilderTest, EmptyPendingYieldsEmptySweep) {
  std::vector<Request> pending;
  Sweep sweep;
  Extract(0, 0, &pending, &sweep);
  EXPECT_TRUE(sweep.empty());
}

TEST_F(SweepBuilderTest, ReplicatedBlockUsesChosenTapePosition) {
  std::vector<Request> pending = {Req(1, 5)};
  Sweep sweep;
  Extract(1, 0, &pending, &sweep);
  ASSERT_EQ(sweep.size(), 1u);
  EXPECT_EQ(sweep.Pop()->position, 32);  // tape 1 copy at slot 2
}

TEST_F(SweepBuilderTest, PreservesPendingOrderOfLeftovers) {
  std::vector<Request> pending = {Req(3, 6), Req(1, 0), Req(2, 6)};
  Sweep sweep;
  Extract(0, 0, &pending, &sweep);
  ASSERT_EQ(pending.size(), 2u);
  EXPECT_EQ(pending[0].id, 3);
  EXPECT_EQ(pending[1].id, 2);
}

TEST_F(SweepBuilderTest, DeadReplicaIsNotExtracted) {
  ASSERT_TRUE(catalog_->MarkReplicaDead(5, 1));
  std::vector<Request> pending = {Req(1, 5), Req(2, 6)};
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
  std::vector<Request> pending = {Req(1, 0)};
  Sweep sweep;
  BuildAndExtract(rig.jukebox(), catalog, 0, 0, nullptr, &pending, &sweep,
                  &set);
  std::vector<Request> more = {Req(2, 0)};
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
  std::vector<Request> pending = {Req(1, 0), Req(2, 1)};
  BuildTapeCandidates(rig.jukebox(), catalog, pending, nullptr, &set);
  pending.erase(pending.begin());
  Sweep sweep;
  EXPECT_DEATH(ExtractSweepForTape(&set, 0, 0, &pending, &sweep),
               "TJ_CHECK");
#endif
}

// --- Differential test against the catalog-walk extraction ----------------

/// The extraction as specified before member lists: walk the queue, look
/// each request's live replica on `tape` up in the catalog, keep it when its
/// block end is within `limit` (if any), and group the kept requests by
/// position, stably in queue order. Returns the entries in execution order
/// and sets `*forward` to the forward phase's length.
std::vector<Sweep::OwnedEntry> ReferenceExtract(
    const Catalog& catalog, TapeId tape, Position start_head,
    int64_t block_mb, const Position* limit, std::vector<Request>* pending,
    size_t* forward) {
  std::vector<std::pair<Position, Request>> extracted;
  std::vector<Request> keep;
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
  std::vector<Sweep::OwnedEntry> entries;
  for (const auto& [position, request] : extracted) {
    if (entries.empty() || entries.back().position != position) {
      entries.push_back(Sweep::OwnedEntry{position, request.block, {}});
    }
    entries.back().requests.push_back(request);
  }
  // Forward ascending from the start head, then reverse descending.
  const auto split = std::partition_point(
      entries.begin(), entries.end(),
      [&](const Sweep::OwnedEntry& e) { return e.position < start_head; });
  *forward = static_cast<size_t>(entries.end() - split);
  std::rotate(entries.begin(), split, entries.end());
  std::reverse(entries.begin() + static_cast<std::ptrdiff_t>(*forward),
               entries.end());
  return entries;
}

/// Entries a sweep pops in its forward phase.
size_t ForwardCount(Sweep sweep) {
  size_t count = 0;
  for (; !sweep.empty() && sweep.phase() == Sweep::Phase::kForward;
       sweep.Pop()) {
    ++count;
  }
  return count;
}

void ExpectSameSweep(const std::vector<Sweep::OwnedEntry>& expected,
                     size_t expected_forward, const Sweep& actual) {
  const std::vector<Sweep::OwnedEntry> b = actual.Entries();
  ASSERT_EQ(expected.size(), b.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].position, b[i].position) << "entry " << i;
    EXPECT_EQ(expected[i].block, b[i].block) << "entry " << i;
    EXPECT_EQ(expected[i].requests, b[i].requests) << "entry " << i;
  }
  EXPECT_EQ(expected_forward, ForwardCount(actual));
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
    std::vector<Request> client;
    std::vector<Request> background;
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
    for (const std::vector<Request>* queue : {&client, &background}) {
      for (TapeId tape = 0; tape < kTapes; ++tape) {
        for (const bool enveloped : {false, true}) {
          const Position start_head =
              kBlockMb * static_cast<Position>(rng.UniformUint64(kSlots));
          const Position* limit =
              enveloped ? &envelope[static_cast<size_t>(tape)] : nullptr;
          std::vector<Request> expected_queue = *queue;
          size_t expected_forward = 0;
          const std::vector<Sweep::OwnedEntry> expected =
              ReferenceExtract(catalog, tape, start_head, kBlockMb, limit,
                               &expected_queue, &expected_forward);
          std::vector<Request> actual_queue = *queue;
          Sweep actual(kBlockMb);
          BuildAndExtract(rig.jukebox(), catalog, tape, start_head,
                          enveloped ? &envelope : nullptr, &actual_queue,
                          &actual, &set);
          ExpectSameSweep(expected, expected_forward, actual);
          EXPECT_EQ(expected_queue, actual_queue);
        }
      }
    }
  }
}

// --- Extraction order against the counting-sort grouping -----------------

/// The grouping ExtractSweepForTape used before it added members straight
/// to their slot's run: a stable counting sort of the member list by slot,
/// then one entry per distinct slot, forward phase ascending from
/// `start_head`, reverse phase descending below it.
std::vector<Sweep::OwnedEntry> CountingSortExtract(
    std::vector<CandidateMember> order, const std::vector<Request>& queue,
    Position start_head, int64_t block_mb, size_t* forward) {
  std::vector<size_t> counts;
  std::vector<CandidateMember> buffer;
  StableCountingSort(
      &order, [](const CandidateMember& m) { return int64_t{m.slot}; },
      &counts, &buffer);
  const auto position = [&](size_t k) { return order[k].slot * block_mb; };
  const auto build_entry = [&](size_t begin, size_t end) {
    Sweep::OwnedEntry entry;
    entry.position = position(begin);
    entry.block = queue[order[begin].index].block;
    for (size_t k = begin; k < end; ++k) {
      entry.requests.push_back(queue[order[k].index]);
    }
    return entry;
  };
  std::vector<Sweep::OwnedEntry> entries;
  size_t reverse_end = 0;  // first index with position >= start_head
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && order[j].slot == order[i].slot) ++j;
    if (position(i) >= start_head) {
      entries.push_back(build_entry(i, j));
    } else {
      reverse_end = j;
    }
    i = j;
  }
  *forward = entries.size();
  for (size_t end = reverse_end; end > 0;) {
    size_t begin = end - 1;
    while (begin > 0 && order[begin - 1].slot == order[end - 1].slot) {
      --begin;
    }
    entries.push_back(build_entry(begin, end));
    end = begin;
  }
  return entries;
}

TEST(SweepBuilderOrder, MatchesCountingSortGrouping) {
  for (const HotLayout layout :
       {HotLayout::kHorizontal, HotLayout::kVertical}) {
    JukeboxConfig config;  // the paper's geometry: 10 tapes of 448 slots
    Jukebox jukebox(config);
    LayoutSpec spec;
    spec.layout = layout;
    spec.num_replicas = 2;
    spec.start_position = 0.5;
    const Catalog catalog = LayoutBuilder::Build(&jukebox, spec).value();
    const int64_t block_mb = config.block_size_mb;
    const int64_t slots = jukebox.slots_per_tape();
    const Position mid_tape = (slots / 2) * block_mb;
    const Position past_last = slots * block_mb;
    TapeCandidateSet set;
    for (uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE(testing::Message()
                   << "layout " << static_cast<int>(layout) << " seed "
                   << seed);
      Rng rng(seed);
      // Requests drawn from a small pool of blocks, mostly hot (the
      // replicated ones), so blocks repeat and tapes share them.
      std::vector<BlockId> pool;
      for (int i = 0; i < 40; ++i) {
        const bool hot = rng.UniformUint64(4) != 0;
        const auto range = static_cast<uint64_t>(
            hot ? catalog.num_hot_blocks() : catalog.num_blocks());
        pool.push_back(static_cast<BlockId>(rng.UniformUint64(range)));
      }
      std::vector<Request> queue;
      for (RequestId id = 0; id < 300; ++id) {
        queue.push_back(Req(id, pool[rng.UniformUint64(pool.size())]));
      }
      for (TapeId tape = 0; tape < jukebox.num_tapes(); ++tape) {
        for (const Position start_head : {Position{0}, mid_tape, past_last}) {
          std::vector<Request> actual_queue = queue;
          BuildTapeCandidates(jukebox, catalog, actual_queue, nullptr, &set);
          size_t expected_forward = 0;
          const std::vector<Sweep::OwnedEntry> expected = CountingSortExtract(
              set.tapes()[static_cast<size_t>(tape)].members, queue,
              start_head, block_mb, &expected_forward);
          Sweep actual(block_mb);
          ExtractSweepForTape(&set, tape, start_head, &actual_queue, &actual);
          ExpectSameSweep(expected, expected_forward, actual);
          EXPECT_EQ(actual.Positions().size(), expected.size());
          if (start_head == 0) {
            EXPECT_EQ(expected_forward, expected.size());
          } else if (start_head == past_last) {
            EXPECT_EQ(expected_forward, 0u);
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace tapejuke
