// Unit tests for the tape-selection policies (paper §3.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "sched/fifo_scheduler.h"
#include "sched/greedy_scheduler.h"
#include "sched/scheduler.h"
#include "test_util.h"
#include "util/rng.h"

namespace tapejuke {
namespace {

constexpr int64_t kBlockMb = 16;

// The slots set in `c`'s bitmap, ascending.
std::vector<int64_t> SetSlots(const TapeCandidate& c) {
  std::vector<int64_t> slots;
  for (size_t w = 0; w < c.slot_bits.size(); ++w) {
    for (int b = 0; b < 64; ++b) {
      if ((c.slot_bits[w] >> b) & 1) {
        slots.push_back(static_cast<int64_t>(w * 64) + b);
      }
    }
  }
  return slots;
}

class PolicyTest : public ::testing::Test {
 protected:
  TapeCandidate Cand(TapeId tape, int64_t requests,
                     std::vector<Position> positions,
                     bool serves_oldest = false) {
    // `requests` placeholder members: only their count matters here.
    return TapeCandidate{
        tape, SlotBitsAt(positions, kBlockMb), serves_oldest,
        std::vector<CandidateMember>(static_cast<size_t>(requests))};
  }

  TimingModel model_{TimingParams::Exabyte8505XL()};
  ScheduleCost cost_{&model_, kBlockMb};
  static constexpr int32_t kTapes = 4;
};

TEST_F(PolicyTest, NoWorkReturnsInvalid) {
  std::vector<TapeCandidate> tapes = {Cand(0, 0, {}), Cand(1, 0, {})};
  EXPECT_EQ(SelectTape(TapePolicy::kMaxRequests, tapes, 0, 0, kTapes, cost_),
            kInvalidTape);
}

TEST_F(PolicyTest, RoundRobinPicksNextAfterMounted) {
  std::vector<TapeCandidate> tapes = {Cand(0, 1, {0}), Cand(1, 5, {0}),
                                      Cand(2, 0, {}), Cand(3, 2, {0})};
  // Mounted 1: next in order with work is 3 (2 has none), not 0 or 1.
  EXPECT_EQ(SelectTape(TapePolicy::kRoundRobin, tapes, 1, 0, kTapes, cost_),
            3);
}

TEST_F(PolicyTest, RoundRobinWrapsAndVisitsMountedLast) {
  std::vector<TapeCandidate> tapes = {Cand(0, 0, {}), Cand(1, 5, {0}),
                                      Cand(2, 0, {}), Cand(3, 0, {})};
  // Only the mounted tape has work: it is chosen (last resort).
  EXPECT_EQ(SelectTape(TapePolicy::kRoundRobin, tapes, 1, 0, kTapes, cost_),
            1);
}

TEST_F(PolicyTest, MaxRequestsPicksLargestQueue) {
  std::vector<TapeCandidate> tapes = {Cand(0, 2, {0, 16}),
                                      Cand(1, 7, {0, 16, 32}),
                                      Cand(2, 3, {0})};
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxRequests, tapes, 2, 0, kTapes, cost_), 1);
}

TEST_F(PolicyTest, MaxRequestsTieBreaksInScanOrderFromMounted) {
  std::vector<TapeCandidate> tapes = {Cand(0, 3, {0}), Cand(1, 0, {}),
                                      Cand(2, 3, {0}), Cand(3, 3, {0})};
  // Mounted 2: scan order 2,3,0,1 -> tape 2 wins the tie.
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxRequests, tapes, 2, 0, kTapes, cost_), 2);
  // Mounted 3: scan order 3,0,1,2 -> tape 3 wins.
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxRequests, tapes, 3, 0, kTapes, cost_), 3);
}

TEST_F(PolicyTest, MaxBandwidthPrefersMountedTapeNoSwitchCost) {
  // Same request sets; the mounted tape avoids the 81 s switch.
  std::vector<TapeCandidate> tapes = {Cand(0, 2, {96, 208}),
                                      Cand(1, 2, {96, 208})};
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxBandwidth, tapes, 0, 0, kTapes, cost_), 0);
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxBandwidth, tapes, 1, 0, kTapes, cost_), 1);
}

TEST_F(PolicyTest, MaxBandwidthPrefersClusteredRequests) {
  // Tape 1's requests are clustered near the start: higher bandwidth than
  // tape 2's scattered ones, despite equal counts. (Neither is mounted.)
  std::vector<TapeCandidate> tapes = {
      Cand(1, 3, {0, 16, 32}), Cand(2, 3, {0, 3200, 6400})};
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxBandwidth, tapes, 0, 0, kTapes, cost_), 1);
}

TEST_F(PolicyTest, MaxBandwidthCanBeatMaxRequests) {
  // Five scattered requests vs three clustered ones.
  std::vector<TapeCandidate> tapes = {
      Cand(1, 5, {0, 1600, 3200, 4800, 6400}), Cand(2, 3, {0, 16, 32})};
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxRequests, tapes, 0, 0, kTapes, cost_), 1);
  EXPECT_EQ(
      SelectTape(TapePolicy::kMaxBandwidth, tapes, 0, 0, kTapes, cost_), 2);
}

TEST_F(PolicyTest, OldestRestrictsEligibleTapes) {
  std::vector<TapeCandidate> tapes = {
      Cand(0, 9, {0}, false), Cand(1, 2, {0}, true), Cand(2, 1, {0}, true)};
  EXPECT_EQ(SelectTape(TapePolicy::kOldestMaxRequests, tapes, 0, 0, kTapes,
                       cost_),
            1);
}

TEST_F(PolicyTest, OldestMaxBandwidthUsesBandwidthAmongEligible) {
  std::vector<TapeCandidate> tapes = {
      Cand(0, 9, {0}, false),
      Cand(1, 2, {0, 6400}, true),
      Cand(2, 2, {0, 16}, true)};
  EXPECT_EQ(SelectTape(TapePolicy::kOldestMaxBandwidth, tapes, 3, 0, kTapes,
                       cost_),
            2);
}

TEST_F(PolicyTest, PolicyNames) {
  EXPECT_STREQ(TapePolicyName(TapePolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(TapePolicyName(TapePolicy::kMaxRequests), "max-requests");
  EXPECT_STREQ(TapePolicyName(TapePolicy::kMaxBandwidth), "max-bandwidth");
  EXPECT_STREQ(TapePolicyName(TapePolicy::kOldestMaxRequests),
               "oldest-max-requests");
  EXPECT_STREQ(TapePolicyName(TapePolicy::kOldestMaxBandwidth),
               "oldest-max-bandwidth");
}

// BuildTapeCandidates: each slot's bit is set once, while num_requests()
// still counts every request, duplicates included.
class BuildTapeCandidatesTest : public ::testing::Test {
 protected:
  // Two tapes x 10 slots. Block 0 at slot 7 on tape 0 and slot 2 on tape
  // 1; block 1 at slot 3 on tape 0; block 2 at slot 5 on tape 1.
  BuildTapeCandidatesTest() : rig_(2) {
    rig_.Place(0, 0, 7);
    rig_.Place(0, 1, 2);
    rig_.Place(1, 0, 3);
    rig_.Place(2, 1, 5);
    catalog_.emplace(rig_.BuildCatalog());
  }

  const std::vector<TapeCandidate>& Build(
      const std::vector<Request>& requests,
      const std::vector<Position>* envelope) {
    BuildTapeCandidates(rig_.jukebox(), *catalog_, requests, envelope, &set_);
    // Every tape's bitmap covers its 10 slots, and a tape without work
    // (say, one that had work in the previous build) has no bits set.
    for (const TapeCandidate& c : set_.tapes()) {
      EXPECT_EQ(c.slot_bits.size(), 1u);
      if (c.members.empty()) {
        EXPECT_TRUE(SetSlots(c).empty()) << c.tape;
      }
    }
    return set_.tapes();
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
  TapeCandidateSet set_;
};

TEST_F(BuildTapeCandidatesTest, DuplicateRequestsCountButPositionsDoNot) {
  // Block 0 three times (the oldest request among them), block 1 once.
  const std::vector<Request> requests = {
      {0, 0, 0.0}, {1, 1, 1.0}, {2, 0, 2.0}, {3, 0, 3.0}};
  const std::vector<TapeCandidate> c = Build(requests, nullptr);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].tape, 0);
  EXPECT_EQ(c[0].num_requests(), 4);
  EXPECT_EQ(SetSlots(c[0]), (std::vector<int64_t>{3, 7}));
  EXPECT_TRUE(c[0].serves_oldest);
  EXPECT_EQ(c[1].tape, 1);
  EXPECT_EQ(c[1].num_requests(), 3);
  EXPECT_EQ(SetSlots(c[1]), (std::vector<int64_t>{2}));
  EXPECT_TRUE(c[1].serves_oldest);
  // A second call sees no stale marks or members from the first.
  const std::vector<Request> only_block2 = {{4, 2, 4.0}};
  const std::vector<TapeCandidate> again = Build(only_block2, nullptr);
  EXPECT_EQ(again[0].num_requests(), 0);
  EXPECT_EQ(again[0].slot_bits, (std::vector<uint64_t>{0}));
  EXPECT_EQ(SetSlots(again[1]), (std::vector<int64_t>{5}));
  EXPECT_FALSE(again[0].serves_oldest);
  EXPECT_TRUE(again[1].serves_oldest);
}

TEST_F(BuildTapeCandidatesTest, EnvelopeAndDeadReplicasFilter) {
  const std::vector<Request> requests = {{0, 1, 0.0}, {1, 0, 1.0},
                                        {2, 0, 2.0}, {3, 2, 3.0}};
  // Tape 0's envelope ends before block 0's slot 7; tape 1's covers all.
  const std::vector<Position> envelope = {64, 160};
  std::vector<TapeCandidate> c = Build(requests, &envelope);
  EXPECT_EQ(c[0].num_requests(), 1);
  EXPECT_EQ(SetSlots(c[0]), (std::vector<int64_t>{3}));
  EXPECT_TRUE(c[0].serves_oldest);
  EXPECT_EQ(c[1].num_requests(), 3);
  EXPECT_EQ(SetSlots(c[1]), (std::vector<int64_t>{2, 5}));
  EXPECT_FALSE(c[1].serves_oldest);

  ASSERT_TRUE(catalog_->MarkReplicaDead(0, 1));
  c = Build(requests, nullptr);
  EXPECT_EQ(c[0].num_requests(), 3);
  EXPECT_EQ(SetSlots(c[0]), (std::vector<int64_t>{3, 7}));
  EXPECT_EQ(c[1].num_requests(), 1);
  EXPECT_EQ(SetSlots(c[1]), (std::vector<int64_t>{5}));
}

// Member lists: one (queue index, slot) per counted request, in queue
// order, with the slot of the tape's live replica; the buffers keep their
// capacity from call to call.
TEST_F(BuildTapeCandidatesTest, MemberListsFollowTheQueue) {
  Rng rng(11);
  std::vector<const CandidateMember*> members_data;
  std::vector<const uint64_t*> bits_data;
  for (int call = 0; call < 30; ++call) {
    std::vector<Request> requests;
    // The first call is the largest, so the later ones fit its buffers.
    const uint64_t size = call == 0 ? 40 : 1 + rng.UniformUint64(40);
    for (uint64_t i = 0; i < size; ++i) {
      requests.push_back(Request{static_cast<RequestId>(i),
                                 static_cast<BlockId>(rng.UniformUint64(3)),
                                 0.0});
    }
    if (call == 0) {
      // Every block on both tapes' lists at once, to size the buffers.
      requests[0].block = 0;
      requests[1].block = 1;
      requests[2].block = 2;
    }
    const std::vector<TapeCandidate>& c = Build(requests, nullptr);
    for (const TapeCandidate& candidate : c) {
      size_t expected_count = 0;
      for (size_t i = 0; i < requests.size(); ++i) {
        if (catalog_->LiveReplicaOn(requests[i].block, candidate.tape) !=
            nullptr) {
          ++expected_count;
        }
      }
      EXPECT_EQ(candidate.members.size(), expected_count);
      for (size_t k = 0; k < candidate.members.size(); ++k) {
        const CandidateMember& m = candidate.members[k];
        if (k > 0) {
          EXPECT_LT(candidate.members[k - 1].index, m.index);
        }
        ASSERT_LT(m.index, requests.size());
        const Replica* replica =
            catalog_->LiveReplicaOn(requests[m.index].block, candidate.tape);
        ASSERT_NE(replica, nullptr);
        EXPECT_EQ(replica->slot, m.slot);
      }
      // The bitmap holds exactly the members' distinct slots.
      std::vector<int64_t> member_slots;
      for (const CandidateMember& m : candidate.members) {
        member_slots.push_back(m.slot);
      }
      std::sort(member_slots.begin(), member_slots.end());
      member_slots.erase(
          std::unique(member_slots.begin(), member_slots.end()),
          member_slots.end());
      EXPECT_EQ(SetSlots(candidate), member_slots);
    }
    if (call == 0) {
      for (const TapeCandidate& candidate : c) {
        members_data.push_back(candidate.members.data());
        bits_data.push_back(candidate.slot_bits.data());
      }
      continue;
    }
    for (size_t t = 0; t < c.size(); ++t) {
      if (c[t].members.empty()) continue;
      EXPECT_EQ(c[t].members.data(), members_data[t]) << "call " << call;
      EXPECT_EQ(c[t].slot_bits.data(), bits_data[t]) << "call " << call;
    }
  }
}

// A greedy scheduler whose candidate set the tests can read.
class CandidateProbe : public GreedyScheduler {
 public:
  using GreedyScheduler::GreedyScheduler;
  const std::vector<TapeCandidate>& candidates() const {
    return candidates_.tapes();
  }
};

// With two drives, the tape the other drive holds is withdrawn before
// selection: its bitmap is zeroed and the decision record leaves it out,
// although it has the most requests.
TEST(ScheduleVisitTest, WithdrawnTapeHasNoBitsAndNoDecisionEntry) {
  TinyRig rig(3, /*capacity_mb=*/160, /*block_size_mb=*/16, /*num_drives=*/2);
  rig.Place(0, 0, 2);
  rig.Place(1, 1, 3);
  rig.Place(1, 2, 4);
  rig.Place(2, 1, 5);
  Catalog catalog = rig.BuildCatalog();
  rig.jukebox().Serve(1, 0.0);
  rig.jukebox().SwitchTo(1);
  rig.jukebox().Serve(0, 0.0);
  ASSERT_TRUE(rig.jukebox().HeldByOtherDrive(1));

  CandidateProbe sched(&rig.jukebox(), &catalog, TapePolicy::kMaxRequests,
                       /*dynamic=*/false);
  DecisionLog log;
  sched.set_decision_sink(&log);
  for (RequestId id = 0; id < 3; ++id) {
    sched.OnArrival(Request{id, static_cast<BlockId>(id), 0.0}, 0);
  }
  EXPECT_EQ(sched.MajorReschedule(), 0);

  const std::vector<TapeCandidate>& c = sched.candidates();
  ASSERT_EQ(c.size(), 3u);
  EXPECT_TRUE(c[1].members.empty());
  EXPECT_EQ(c[1].slot_bits, (std::vector<uint64_t>{0}));
  EXPECT_EQ(SetSlots(c[2]), (std::vector<int64_t>{4}));
  ASSERT_EQ(log.records.size(), 1u);
  std::vector<TapeId> recorded;
  for (const obs::TapeCandidateScore& score : log.records[0].candidates) {
    recorded.push_back(score.tape);
  }
  EXPECT_EQ(recorded, (std::vector<TapeId>{0, 2}));
}

// FIFO records the one replica it picked: one request, scored as a
// one-block visit. Slot 100 sits in the bitmap's second word.
TEST(FifoDecisionTest, RecordsOneBlockAtItsVisitBandwidth) {
  TinyRig rig(2, /*capacity_mb=*/16 * 130);
  rig.Place(0, 1, 100);
  Catalog catalog = rig.BuildCatalog();
  rig.jukebox().SwitchTo(0);
  rig.jukebox().ReadBlockAt(16 * 20);
  const Position head = rig.jukebox().head();
  ASSERT_GT(head, 0);

  FifoScheduler sched(&rig.jukebox(), &catalog, SchedulerOptions{});
  DecisionLog log;
  sched.set_decision_sink(&log);
  sched.OnArrival(Request{0, 0, 0.0}, head);
  EXPECT_EQ(sched.MajorReschedule(), 1);

  ASSERT_EQ(log.records.size(), 1u);
  ASSERT_EQ(log.records[0].candidates.size(), 1u);
  const obs::TapeCandidateScore& only = log.records[0].candidates[0];
  EXPECT_EQ(only.tape, 1);
  EXPECT_EQ(only.num_requests, 1);
  EXPECT_TRUE(only.serves_oldest);
  const ScheduleCost cost(&rig.model(), rig.block_mb());
  const double seconds =
      rig.model().FullSwitchTime(head) + cost.ExecutionSeconds(0, {1600});
  EXPECT_EQ(only.bandwidth_mbps, 16.0 / seconds);
}

}  // namespace
}  // namespace tapejuke
