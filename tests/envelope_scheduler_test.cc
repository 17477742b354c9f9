// Unit tests for the envelope-extension scheduler (paper §3.2), including
// the paper's Figure 2 worked example.

#include "sched/envelope_scheduler.h"

#include <gtest/gtest.h>

#include <set>
#include <utility>

#include "sched/extension_list.h"
#include "test_util.h"
#include "util/rng.h"

namespace tapejuke {
namespace {

Request Req(RequestId id, BlockId block) {
  return Request{id, block, static_cast<double>(id)};
}

// The paper's Figure 2: blocks A, B requested near the start of tape 1 (the
// mounted tape), C near the start of tape 0, and D replicated — far out on
// tape 1 but right after C on tape 0. A greedy scheduler runs to the end of
// tape 1 for D; the envelope algorithm fetches D's copy behind C instead.
class Figure2Test : public ::testing::Test {
 protected:
  static constexpr BlockId kA = 0, kB = 1, kC = 2, kD = 3;

  Figure2Test() : rig_(2) {
    rig_.Place(kA, 1, 0);
    rig_.Place(kB, 1, 1);
    rig_.Place(kD, 1, 9);  // far replica
    rig_.Place(kC, 0, 1);
    rig_.Place(kD, 0, 2);  // copy that follows C
    catalog_ = rig_.BuildCatalog();
    rig_.jukebox().SwitchTo(1);  // head at the beginning of tape 1
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
};

TEST_F(Figure2Test, UpperEnvelopeRetrievesDFromTapeZero) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests);
  const std::vector<Request> requests = {Req(1, kA), Req(2, kB), Req(3, kC),
                                         Req(4, kD)};
  const auto result = sched.ComputeUpperEnvelope(requests);

  // Initial envelope: tape 1 up to the end of B, tape 0 up to the end of C.
  ASSERT_EQ(result.initial_envelope.size(), 2u);
  EXPECT_EQ(result.initial_envelope[1], 32);
  EXPECT_EQ(result.initial_envelope[0], 32);
  // D was the only request unscheduled after step 2.
  ASSERT_EQ(result.initially_unscheduled.size(), 1u);
  EXPECT_EQ(result.initially_unscheduled[0].block, kD);

  // The extension encloses D's cheap copy on tape 0, not the far one.
  ASSERT_TRUE(result.assignment.contains(4));
  EXPECT_EQ(result.assignment.at(4).tape, 0);
  EXPECT_EQ(result.assignment.at(4).position, 32);
  EXPECT_EQ(result.envelope[0], 48);
  EXPECT_EQ(result.envelope[1], 32);  // tape 1 never extends to slot 9
}

TEST_F(Figure2Test, MajorRescheduleNeverVisitsTapeOneEnd) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests);
  for (const Request& r :
       {Req(1, kA), Req(2, kB), Req(3, kC), Req(4, kD)}) {
    sched.OnArrival(r, 0);
  }
  // First sweep: the mounted tape (A, B) wins the max-requests tie.
  const TapeId first = sched.MajorReschedule();
  EXPECT_EQ(first, 1);
  EXPECT_EQ(sched.sweep_size(), 2u);
  Position max_position = 0;
  while (auto entry = sched.PopNext()) {
    max_position = std::max(max_position, entry->position);
  }
  EXPECT_LE(max_position, 16);  // B, not the D copy at 144

  // Second sweep: tape 0 serves C and D.
  rig_.jukebox().SwitchTo(first);
  const TapeId second = sched.MajorReschedule();
  EXPECT_EQ(second, 0);
  EXPECT_EQ(sched.sweep_size(), 2u);
  EXPECT_EQ(sched.PopNext()->block, kC);
  EXPECT_EQ(sched.PopNext()->block, kD);
  EXPECT_FALSE(sched.HasWork());
}

TEST_F(Figure2Test, Name) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxBandwidth);
  EXPECT_EQ(sched.name(), "max-bandwidth envelope");
}

// Incremental-scheduler behaviour.
class EnvelopeIncrementalTest : public ::testing::Test {
 protected:
  // Tape 0: P (block 0) at slot 0; X (block 1) at slot 5, replicated on
  // tape 1 slot 8. Tape 1: Q (block 2) at slot 1; Y (block 3) at slot 9.
  EnvelopeIncrementalTest() : rig_(2) {
    rig_.Place(0, 0, 0);
    rig_.Place(1, 0, 5);
    rig_.Place(1, 1, 8);
    rig_.Place(2, 1, 1);
    rig_.Place(3, 1, 9);
    catalog_ = rig_.BuildCatalog();
    rig_.jukebox().SwitchTo(0);
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
};

TEST_F(EnvelopeIncrementalTest, ArrivalInsideEnvelopeJoinsSweep) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests);
  sched.OnArrival(Req(1, 0), 0);
  sched.OnArrival(Req(2, 1), 0);
  ASSERT_EQ(sched.MajorReschedule(), 0);
  EXPECT_EQ(sched.sweep_size(), 2u);
  // envelope on tape 0 reaches the end of X (96); a second request for P
  // (inside, ahead of head 0) inserts.
  sched.OnArrival(Req(3, 0), /*committed_head=*/0);
  EXPECT_EQ(sched.sweep_size(), 2u);  // joined P's existing entry
  EXPECT_EQ(sched.pending_size(), 0u);
}

TEST_F(EnvelopeIncrementalTest, ExtensionShrinksActiveSweep) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests);
  sched.OnArrival(Req(1, 0), 0);  // P pins tape 0
  sched.OnArrival(Req(2, 1), 0);  // X: replicated, both copies outside
  sched.OnArrival(Req(3, 2), 0);  // Q pins tape 1
  ASSERT_EQ(sched.MajorReschedule(), 0);
  // Sweep on tape 0: P and X (X's tape-0 extension is cheaper than its
  // far tape-1 copy).
  EXPECT_EQ(sched.sweep_size(), 2u);
  ASSERT_EQ(sched.current_envelope().size(), 2u);
  EXPECT_EQ(sched.current_envelope()[0], 96);   // end of X on tape 0
  EXPECT_EQ(sched.current_envelope()[1], 32);   // end of Q

  // Y arrives: only on tape 1 at slot 9 (position 144). Extending tape 1's
  // envelope to 160 encloses X's tape-1 copy (128..144), so X becomes
  // redundant on tape 0: step 5 trims it from the active sweep.
  sched.OnArrival(Req(4, 3), /*committed_head=*/0);
  EXPECT_EQ(sched.sweep_size(), 1u);               // only P remains
  EXPECT_EQ(sched.current_envelope()[0], 16);      // shrunk to end of P
  EXPECT_EQ(sched.current_envelope()[1], 160);     // extended for Y
  EXPECT_EQ(sched.pending_size(), 3u);             // Q + re-deferred X + Y
  // Re-deferred requests keep arrival (id) order: X (id 2) before Q (3).
  EXPECT_EQ(sched.pending().front().id, 2);

  // The next visit to tape 1 serves Q, X, and Y in one pass.
  while (sched.PopNext()) {
  }
  rig_.jukebox().SwitchTo(0);
  EXPECT_EQ(sched.MajorReschedule(), 1);
  EXPECT_EQ(sched.sweep_size(), 3u);  // Q (16), X (128), Y (144)
}

TEST_F(EnvelopeIncrementalTest, ShrinkAblationKeepsSweepIntact) {
  SchedulerOptions options;
  options.envelope_shrink = false;
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests, options);
  sched.OnArrival(Req(1, 0), 0);
  sched.OnArrival(Req(2, 1), 0);
  sched.OnArrival(Req(3, 2), 0);
  ASSERT_EQ(sched.MajorReschedule(), 0);
  EXPECT_EQ(sched.sweep_size(), 2u);
  sched.OnArrival(Req(4, 3), 0);
  EXPECT_EQ(sched.sweep_size(), 2u);  // X stays scheduled on tape 0
}

TEST_F(EnvelopeIncrementalTest, ArrivalWhileIdleIsDeferred) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests);
  sched.OnArrival(Req(1, 0), 0);
  EXPECT_EQ(sched.pending_size(), 1u);
  EXPECT_TRUE(sched.sweep_empty());
}

TEST_F(EnvelopeIncrementalTest, NoPendingWorkReturnsInvalidTape) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests);
  EXPECT_EQ(sched.MajorReschedule(), kInvalidTape);
}

TEST_F(Figure2Test, ValidateEnvelopeModeAgreesWithReference) {
  SchedulerOptions options;
  options.validate_envelope = true;  // per-round + full-result oracles armed
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests, options);
  for (const Request& r :
       {Req(1, kA), Req(2, kB), Req(3, kC), Req(4, kD)}) {
    sched.OnArrival(r, 0);
  }
  EXPECT_EQ(sched.MajorReschedule(), 1);
  EXPECT_EQ(sched.sweep_size(), 2u);
}

// ---------------------------------------------------------------------------
// Incremental-kernel regression tests.
// ---------------------------------------------------------------------------

// Two tapes engineered so their best extension prefixes have
// *mathematically* equal incremental bandwidth reached through different
// locate-gap sums ({32, 96} vs {64, 64} MB, all in the long-locate regime).
// Floating-point evaluation of the two sums can differ in the last ulp, so
// an exact `==` tie-break may never fire and the winner would be whichever
// rounding landed higher. The relative-epsilon tie-break must treat them as
// tied and fall through to the deterministic rules.
class EnvelopeTieBreakTest : public ::testing::Test {
 protected:
  static constexpr BlockId kPin1 = 0, kPin2 = 1, kE = 2, kF = 3;

  EnvelopeTieBreakTest() : rig_(3, /*capacity_mb=*/320) {
    rig_.Place(kPin1, 1, 0);  // non-replicated: pins tape 1's envelope
    rig_.Place(kPin2, 2, 0);  // non-replicated: pins tape 2's envelope
    rig_.Place(kE, 1, 3);     // tape 1 gaps: 32 MB then 96 MB
    rig_.Place(kF, 1, 10);
    rig_.Place(kE, 2, 5);     // tape 2 gaps: 64 MB then 64 MB
    rig_.Place(kF, 2, 10);
    catalog_ = rig_.BuildCatalog();
    rig_.jukebox().SwitchTo(0);
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
};

TEST_F(EnvelopeTieBreakTest, BandwidthTieGoesToTapeWithMoreRequests) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests);
  // Two requests pin tape 2's anchor, one pins tape 1's: tape 2 must win
  // the bandwidth tie on scheduled-request count.
  const std::vector<Request> requests = {Req(1, kPin1), Req(2, kPin2),
                                         Req(3, kPin2), Req(4, kE),
                                         Req(5, kF)};
  const auto result = sched.ComputeUpperEnvelope(requests);
  EXPECT_EQ(result.assignment.at(4).tape, 2);
  EXPECT_EQ(result.assignment.at(4).position, 80);
  EXPECT_EQ(result.assignment.at(5).tape, 2);
  EXPECT_EQ(result.assignment.at(5).position, 160);
  EXPECT_EQ(result.envelope[1], 16);   // tape 1 never extends
  EXPECT_EQ(result.envelope[2], 176);
  EXPECT_EQ(sched.counters().extension_rounds, 1);
  // Round 1 scores only the two tapes with extension candidates.
  EXPECT_EQ(sched.counters().tapes_rescored, 2);
}

TEST_F(EnvelopeTieBreakTest, BandwidthAndCountTieGoesToJukeboxOrder) {
  EnvelopeScheduler sched(&rig_.jukebox(), &*catalog_,
                          TapePolicy::kMaxRequests);
  // One request per anchor: bandwidth and counts both tie, so the scan
  // order from the mounted tape (0) picks tape 1 over tape 2.
  const std::vector<Request> requests = {Req(1, kPin1), Req(2, kPin2),
                                         Req(3, kE), Req(4, kF)};
  const auto result = sched.ComputeUpperEnvelope(requests);
  EXPECT_EQ(result.assignment.at(3).tape, 1);
  EXPECT_EQ(result.assignment.at(3).position, 48);
  EXPECT_EQ(result.assignment.at(4).tape, 1);
  EXPECT_EQ(result.assignment.at(4).position, 160);
  EXPECT_EQ(result.envelope[1], 176);
  EXPECT_EQ(result.envelope[2], 16);
}

// Randomized equivalence fuzz: the incremental kernel must produce results
// byte-identical to the from-scratch reference on arbitrary instances, and
// every assignment must be a real catalog replica (regression for the
// synthetic `position / block_mb` Replica the old step 4 fabricated).
class EnvelopeKernelFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnvelopeKernelFuzz, IncrementalMatchesReferenceKernel) {
  Rng rng(GetParam());
  TinyRig rig(4, /*capacity_mb=*/400, /*block_size_mb=*/16);
  std::set<std::pair<TapeId, int64_t>> used;
  auto place_random = [&](BlockId block, TapeId tape, int64_t lo,
                          int64_t hi) {
    for (;;) {
      const int64_t slot =
          lo + static_cast<int64_t>(
                   rng.UniformUint64(static_cast<uint64_t>(hi - lo)));
      if (used.insert({tape, slot}).second) {
        rig.Place(block, tape, slot);
        return;
      }
    }
  };
  BlockId next_block = 0;
  // 1-3 non-replicated anchors near the tape starts pin the envelope.
  const int num_anchors = 1 + static_cast<int>(rng.UniformUint64(3));
  for (int i = 0; i < num_anchors; ++i) {
    place_random(next_block++, static_cast<TapeId>(rng.UniformUint64(4)), 0,
                 5);
  }
  // 3-7 replicated blocks with 2-4 copies on distinct tapes, farther out.
  const int num_replicated = 3 + static_cast<int>(rng.UniformUint64(5));
  for (int i = 0; i < num_replicated; ++i) {
    const int copies = 2 + static_cast<int>(rng.UniformUint64(3));
    std::set<TapeId> tapes;
    while (static_cast<int>(tapes.size()) < copies) {
      tapes.insert(static_cast<TapeId>(rng.UniformUint64(4)));
    }
    for (const TapeId t : tapes) place_random(next_block, t, 3, 25);
    ++next_block;
  }
  const Catalog catalog = rig.BuildCatalog();
  rig.jukebox().SwitchTo(static_cast<TapeId>(rng.UniformUint64(4)));

  EnvelopeScheduler sched(&rig.jukebox(), &catalog,
                          TapePolicy::kMaxRequests);
  std::vector<Request> requests;
  RequestId id = 0;
  for (BlockId b = 0; b < next_block; ++b) {
    requests.push_back(Request{id++, b, 0.0});
  }
  // A couple of duplicate requests exercise same-position list entries and
  // the post-extension absorb path.
  for (int i = 0; i < 2; ++i) {
    requests.push_back(Request{
        id++,
        static_cast<BlockId>(
            rng.UniformUint64(static_cast<uint64_t>(next_block))),
        0.0});
  }

  const auto incremental = sched.ComputeUpperEnvelope(requests);
  const auto reference = sched.ComputeUpperEnvelopeReference(requests);
  EXPECT_EQ(incremental.envelope, reference.envelope);
  EXPECT_EQ(incremental.scheduled_per_tape, reference.scheduled_per_tape);
  EXPECT_EQ(incremental.extension_rounds, reference.extension_rounds);
  EXPECT_EQ(incremental.initial_envelope, reference.initial_envelope);
  ASSERT_EQ(incremental.assignment.size(), reference.assignment.size());
  for (const auto& [rid, replica] : incremental.assignment) {
    ASSERT_TRUE(reference.assignment.contains(rid));
    EXPECT_EQ(replica, reference.assignment.at(rid));
  }
  for (const Request& request : requests) {
    ASSERT_TRUE(incremental.assignment.contains(request.id));
    const Replica& chosen = incremental.assignment.at(request.id);
    bool in_catalog = false;
    for (const Replica& replica : catalog.ReplicasOf(request.block)) {
      in_catalog |= replica == chosen;
    }
    EXPECT_TRUE(in_catalog)
        << "request " << request.id << " assigned a non-catalog replica";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomInstances, EnvelopeKernelFuzz,
                         ::testing::Range<uint64_t>(1, 31));

// The incremental kernel keeps its state across calls: the per-tape
// assigned lists, the unscheduled indices, the extension lists and the
// step-5 budget are cleared, not rebuilt. One scheduler runs a sequence of
// calls whose input grows and shrinks (empty, one request, then 2k
// requests over a few dozen blocks alternating with small inputs, so state
// left over from a large call would show), with the mounted tape, the
// head and the live replicas changing between calls; every call must
// match the reference kernel, which starts from a fresh state each time.
class EnvelopeKernelReuse : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EnvelopeKernelReuse, EveryCallMatchesFreshReference) {
  Rng rng(GetParam());
  constexpr int32_t kTapes = 5;
  constexpr BlockId kBlocks = 40;
  TinyRig rig(kTapes, /*capacity_mb=*/800, /*block_size_mb=*/16);
  const int64_t slots = rig.jukebox().slots_per_tape();
  std::set<std::pair<TapeId, int64_t>> used;
  // Every fourth block has one copy; the rest have 2-4 on distinct tapes.
  for (BlockId b = 0; b < kBlocks; ++b) {
    const int copies =
        b % 4 == 0 ? 1 : 2 + static_cast<int>(rng.UniformUint64(3));
    std::set<TapeId> tapes;
    while (static_cast<int>(tapes.size()) < copies) {
      tapes.insert(static_cast<TapeId>(rng.UniformUint64(kTapes)));
    }
    for (const TapeId t : tapes) {
      for (;;) {
        const auto slot = static_cast<int64_t>(
            rng.UniformUint64(static_cast<uint64_t>(slots)));
        if (used.insert({t, slot}).second) {
          rig.Place(b, t, slot);
          break;
        }
      }
    }
  }
  Catalog catalog = rig.BuildCatalog();
  EnvelopeScheduler sched(&rig.jukebox(), &catalog,
                          TapePolicy::kMaxBandwidth);

  RequestId id = 0;
  int call = 0;
  for (const int size : {0, 1, 2000, 5, 2000, 12, 2000, 3, 2000, 25, 2000, 9,
                         2000, 15}) {
    SCOPED_TRACE(testing::Message() << "call " << call << ", " << size
                                    << " requests");
    if (call++ > 0) {
      // Move the drive: another tape, the head somewhere in its first half.
      rig.jukebox().SwitchTo(static_cast<TapeId>(rng.UniformUint64(kTapes)));
      rig.jukebox().ReadBlockAt(
          16 * static_cast<Position>(
                   rng.UniformUint64(static_cast<uint64_t>(slots / 2))));
      // Kill one copy of a block that keeps another live copy.
      const auto victim =
          static_cast<BlockId>(rng.UniformUint64(kBlocks));
      if (catalog.LiveReplicaCount(victim) > 1) {
        for (const Replica& replica : catalog.ReplicasOf(victim)) {
          if (catalog.IsAlive(replica)) {
            catalog.MarkReplicaDead(victim, replica.tape);
            break;
          }
        }
      }
    }
    std::vector<Request> requests;
    for (int i = 0; i < size; ++i) {
      requests.push_back(Request{
          id++, static_cast<BlockId>(rng.UniformUint64(kBlocks)), 0.0});
    }
    // ComputeUpperEnvelope leaves its result in the reusable state, so the
    // next call starts from a fully populated one.
    const auto incremental = sched.ComputeUpperEnvelope(requests);
    const auto reference = sched.ComputeUpperEnvelopeReference(requests);
    EXPECT_EQ(incremental.envelope, reference.envelope);
    EXPECT_EQ(incremental.scheduled_per_tape, reference.scheduled_per_tape);
    EXPECT_EQ(incremental.extension_rounds, reference.extension_rounds);
    EXPECT_EQ(incremental.initial_envelope, reference.initial_envelope);
    ASSERT_EQ(incremental.initially_unscheduled.size(),
              reference.initially_unscheduled.size());
    for (size_t i = 0; i < incremental.initially_unscheduled.size(); ++i) {
      EXPECT_EQ(incremental.initially_unscheduled[i].id,
                reference.initially_unscheduled[i].id);
    }
    ASSERT_EQ(incremental.assignment.size(), requests.size());
    ASSERT_EQ(reference.assignment.size(), requests.size());
    for (const auto& [rid, replica] : incremental.assignment) {
      ASSERT_TRUE(reference.assignment.contains(rid));
      EXPECT_EQ(replica, reference.assignment.at(rid)) << "request " << rid;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSequences, EnvelopeKernelReuse,
                         ::testing::Range<uint64_t>(1, 21));

// The incremental kernel orders its extension lists by slot bucketing; the
// oracles keep the (position, uid) comparator sort. On lists built the way
// the kernel builds them (ascending uid, dead replicas skipped, blocks
// requested more than once) the two orders must agree entry for entry.
class ExtListOrderFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExtListOrderFuzz, SlotBucketsMatchComparatorOrder) {
  Rng rng(GetParam());
  constexpr int32_t kTapes = 4;
  TinyRig rig(kTapes, /*capacity_mb=*/800, /*block_size_mb=*/16);
  const int64_t slots = rig.jukebox().slots_per_tape();
  std::set<std::pair<TapeId, int64_t>> used;
  const BlockId num_blocks = 20 + static_cast<BlockId>(rng.UniformUint64(20));
  for (BlockId b = 0; b < num_blocks; ++b) {
    const int copies = 1 + static_cast<int>(rng.UniformUint64(kTapes));
    std::set<TapeId> tapes;
    while (static_cast<int>(tapes.size()) < copies) {
      tapes.insert(static_cast<TapeId>(rng.UniformUint64(kTapes)));
    }
    for (const TapeId t : tapes) {
      for (;;) {
        const auto slot = static_cast<int64_t>(
            rng.UniformUint64(static_cast<uint64_t>(slots)));
        if (used.insert({t, slot}).second) {
          rig.Place(b, t, slot);
          break;
        }
      }
    }
  }
  Catalog catalog = rig.BuildCatalog();
  for (BlockId b = 0; b < num_blocks; ++b) {
    if (rng.UniformUint64(4) == 0) {
      catalog.MarkReplicaDead(b, catalog.ReplicasOf(b).front().tape);
    }
  }
  // Requests in arrival (uid) order; every block may be asked for again.
  // The count varies so per-tape lists fall on both sides of
  // kCountingSortMinItems (insertion sort below it, bucketing above).
  std::vector<BlockId> requested;
  const int num_requests = 10 + static_cast<int>(rng.UniformUint64(190));
  for (int i = 0; i < num_requests; ++i) {
    requested.push_back(static_cast<BlockId>(
        rng.UniformUint64(static_cast<uint64_t>(num_blocks))));
  }

  std::vector<size_t> counts;
  std::vector<Ext> buffer;
  for (TapeId t = 0; t < kTapes; ++t) {
    std::vector<Ext> list;
    for (size_t uid = 0; uid < requested.size(); ++uid) {
      for (const Replica& replica : catalog.ReplicasOf(requested[uid])) {
        if (replica.tape != t || !catalog.IsAlive(replica)) continue;
        list.push_back(Ext{replica.position, uid, &replica});
      }
    }
    std::vector<Ext> by_comparator = list;
    SortExtListByPosition(&by_comparator);
    BucketExtListBySlot(&list, &counts, &buffer);
    ASSERT_EQ(list.size(), by_comparator.size());
    for (size_t k = 0; k < list.size(); ++k) {
      EXPECT_EQ(list[k].position, by_comparator[k].position)
          << "tape " << t << " entry " << k;
      EXPECT_EQ(list[k].uid, by_comparator[k].uid);
      EXPECT_EQ(list[k].replica, by_comparator[k].replica);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLists, ExtListOrderFuzz,
                         ::testing::Range<uint64_t>(1, 21));

}  // namespace
}  // namespace tapejuke
