// Unit tests for the tape-selection policies (paper §3.1).

#include <gtest/gtest.h>

#include <deque>
#include <optional>
#include <vector>

#include "sched/scheduler.h"
#include "test_util.h"
#include "util/rng.h"

namespace tapejuke {
namespace {

class PolicyTest : public ::testing::Test {
 protected:
  TapeCandidate Cand(TapeId tape, int64_t requests,
                     std::vector<Position> positions,
                     bool serves_oldest = false) {
    // `requests` placeholder members: only their count matters here.
    return TapeCandidate{tape, std::move(positions), serves_oldest,
                         std::vector<CandidateMember>(
                             static_cast<size_t>(requests))};
  }

  TimingModel model_{TimingParams::Exabyte8505XL()};
  ScheduleCost cost_{&model_, 16};
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
  std::vector<TapeCandidate> tapes = {Cand(0, 2, {100, 200}),
                                      Cand(1, 2, {100, 200})};
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

// BuildTapeCandidates: positions come out ascending and distinct, while
// num_requests() still counts every request, duplicates included.
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
      const std::deque<Request>& requests,
      const std::vector<Position>* envelope) {
    BuildTapeCandidates(rig_.jukebox(), *catalog_, requests, envelope, &set_);
    // Every build leaves the slot marks clear for the next one.
    EXPECT_TRUE(set_.SlotMarksClear());
    return set_.tapes();
  }

  TinyRig rig_;
  std::optional<Catalog> catalog_;
  TapeCandidateSet set_;
};

TEST_F(BuildTapeCandidatesTest, DuplicateRequestsCountButPositionsDoNot) {
  // Block 0 three times (the oldest request among them), block 1 once.
  const std::deque<Request> requests = {
      {0, 0, 0.0}, {1, 1, 1.0}, {2, 0, 2.0}, {3, 0, 3.0}};
  const std::vector<TapeCandidate> c = Build(requests, nullptr);
  ASSERT_EQ(c.size(), 2u);
  EXPECT_EQ(c[0].tape, 0);
  EXPECT_EQ(c[0].num_requests(), 4);
  EXPECT_EQ(c[0].positions, (std::vector<Position>{48, 112}));
  EXPECT_TRUE(c[0].serves_oldest);
  EXPECT_EQ(c[1].tape, 1);
  EXPECT_EQ(c[1].num_requests(), 3);
  EXPECT_EQ(c[1].positions, (std::vector<Position>{32}));
  EXPECT_TRUE(c[1].serves_oldest);
  // A second call sees no stale marks or members from the first.
  const std::deque<Request> only_block2 = {{4, 2, 4.0}};
  const std::vector<TapeCandidate> again = Build(only_block2, nullptr);
  EXPECT_EQ(again[0].num_requests(), 0);
  EXPECT_TRUE(again[0].positions.empty());
  EXPECT_EQ(again[1].positions, (std::vector<Position>{80}));
  EXPECT_FALSE(again[0].serves_oldest);
  EXPECT_TRUE(again[1].serves_oldest);
}

TEST_F(BuildTapeCandidatesTest, EnvelopeAndDeadReplicasFilter) {
  const std::deque<Request> requests = {{0, 1, 0.0}, {1, 0, 1.0},
                                        {2, 0, 2.0}, {3, 2, 3.0}};
  // Tape 0's envelope ends before block 0's slot 7; tape 1's covers all.
  const std::vector<Position> envelope = {64, 160};
  std::vector<TapeCandidate> c = Build(requests, &envelope);
  EXPECT_EQ(c[0].num_requests(), 1);
  EXPECT_EQ(c[0].positions, (std::vector<Position>{48}));
  EXPECT_TRUE(c[0].serves_oldest);
  EXPECT_EQ(c[1].num_requests(), 3);
  EXPECT_EQ(c[1].positions, (std::vector<Position>{32, 80}));
  EXPECT_FALSE(c[1].serves_oldest);

  ASSERT_TRUE(catalog_->MarkReplicaDead(0, 1));
  c = Build(requests, nullptr);
  EXPECT_EQ(c[0].num_requests(), 3);
  EXPECT_EQ(c[0].positions, (std::vector<Position>{48, 112}));
  EXPECT_EQ(c[1].num_requests(), 1);
  EXPECT_EQ(c[1].positions, (std::vector<Position>{80}));
}

// Member lists: one (queue index, slot) per counted request, in queue
// order, with the slot of the tape's live replica; the buffers keep their
// capacity from call to call.
TEST_F(BuildTapeCandidatesTest, MemberListsFollowTheQueue) {
  Rng rng(11);
  std::vector<const CandidateMember*> members_data;
  std::vector<const Position*> positions_data;
  for (int call = 0; call < 30; ++call) {
    std::deque<Request> requests;
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
    }
    if (call == 0) {
      for (const TapeCandidate& candidate : c) {
        members_data.push_back(candidate.members.data());
        positions_data.push_back(candidate.positions.data());
      }
      continue;
    }
    for (size_t t = 0; t < c.size(); ++t) {
      if (c[t].members.empty()) continue;
      EXPECT_EQ(c[t].members.data(), members_data[t]) << "call " << call;
      EXPECT_EQ(c[t].positions.data(), positions_data[t]) << "call " << call;
    }
  }
}

}  // namespace
}  // namespace tapejuke
