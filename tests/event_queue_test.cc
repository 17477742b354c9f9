// Unit tests for the DES event queue.

#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace tapejuke {
namespace {

TEST(EventQueue, OrdersByTime) {
  EventQueue<int> q;
  q.Schedule(3.0, 30);
  q.Schedule(1.0, 10);
  q.Schedule(2.0, 20);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.NextTime(), 1.0);
  EXPECT_EQ(q.Pop().second, 10);
  EXPECT_EQ(q.Pop().second, 20);
  EXPECT_EQ(q.Pop().second, 30);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, EqualTimesPreserveInsertionOrder) {
  EventQueue<std::string> q;
  q.Schedule(5.0, "first");
  q.Schedule(5.0, "second");
  q.Schedule(5.0, "third");
  EXPECT_EQ(q.Pop().second, "first");
  EXPECT_EQ(q.Pop().second, "second");
  EXPECT_EQ(q.Pop().second, "third");
}

TEST(EventQueue, EqualTimeFifoInterleavedWithOtherTimes) {
  // The FIFO tie-break must hold when equal-time events are interleaved
  // with earlier and later ones.
  EventQueue<int> q;
  q.Schedule(7.0, 1);
  q.Schedule(3.0, 0);
  q.Schedule(7.0, 2);
  q.Schedule(9.0, 5);
  q.Schedule(7.0, 3);
  EXPECT_EQ(q.Pop().second, 0);
  q.Schedule(7.0, 4);  // scheduled after pops began, still FIFO among 7.0s
  EXPECT_EQ(q.Pop().second, 1);
  EXPECT_EQ(q.Pop().second, 2);
  EXPECT_EQ(q.Pop().second, 3);
  EXPECT_EQ(q.Pop().second, 4);
  EXPECT_EQ(q.Pop().second, 5);
}

TEST(EventQueue, EqualTimeFifoSurvivesResize) {
  // Push a large batch of ties and then drain: the insertion-order
  // tie-break must survive the heap's reordering and storage growth.
  EventQueue<int> q;
  constexpr int kBatch = 500;
  for (int i = 0; i < kBatch; ++i) q.Schedule(10.0, i);
  for (int i = 0; i < kBatch; ++i) q.Schedule(20.0, kBatch + i);
  for (int i = 0; i < 2 * kBatch; ++i) {
    EXPECT_EQ(q.Pop().second, i);
  }
  EXPECT_TRUE(q.empty());
}

// EventQueue beside a reference std::priority_queue ordered on (time,
// insertion order): each Schedule goes to both, and PopBoth pops both.
class ReferencePair {
 public:
  void Schedule(double time) {
    queue_.Schedule(time, next_id_);
    reference_.emplace(time, next_id_);
    ++next_id_;
  }

  // Pops one event from each queue; fails unless they are the same event.
  ::testing::AssertionResult PopBoth() {
    const auto [want_time, want_id] = reference_.top();
    reference_.pop();
    const auto [time, id] = queue_.Pop();
    now_ = time;
    if (time == want_time && id == want_id) {
      return ::testing::AssertionSuccess();
    }
    return ::testing::AssertionFailure()
           << "popped (" << time << ", " << id << "), reference ("
           << want_time << ", " << want_id << ")";
  }

  double now() const { return now_; }
  size_t size() const { return reference_.size(); }
  bool empty() const { return reference_.empty(); }

 private:
  EventQueue<int> queue_;
  // A min-heap on (time, id); ids rise in insertion order.
  std::priority_queue<std::pair<double, int>,
                      std::vector<std::pair<double, int>>, std::greater<>>
      reference_;
  int next_id_ = 0;
  double now_ = 0;
};

TEST(EventQueue, HoldModelMatchesReferenceOrdering) {
  // A deterministic hold-model churn (pop one, push one with a pseudo-
  // random future offset) against the reference, through bursts that grow
  // and drains that shrink the population.
  ReferencePair pair;
  uint64_t state = 12345;
  auto next_u64 = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int i = 0; i < 256; ++i) {
    pair.Schedule(static_cast<double>(next_u64() % 1000) / 10.0);
  }
  for (int step = 0; step < 4096; ++step) {
    ASSERT_TRUE(pair.PopBoth());
    // Occasionally burst (grow) or drain (shrink) the population.
    const uint64_t draw = next_u64();
    const int pushes = step % 97 == 0 ? 64 : (draw % 16 == 0 ? 0 : 1);
    for (int p = 0; p < pushes && pair.size() < 4096; ++p) {
      pair.Schedule(pair.now() +
                    static_cast<double>(next_u64() % 100000) / 100.0);
    }
    if (pair.empty()) break;
  }
}

TEST(EventQueue, TieAndSpikeChurnMatchesReferenceOrdering) {
  // 50k rounds of bursts (0-3 events) mixing near-future times, exact ties
  // with the clock and sparse far-future spikes, against the reference;
  // drained at random, and always while more than 512 events are pending.
  ReferencePair pair;
  Rng rng(2024);
  for (int round = 0; round < 50'000; ++round) {
    const auto burst = static_cast<int>(rng.UniformUint64(4));
    for (int i = 0; i < burst; ++i) {
      double when = pair.now();  // kinds 5 and 6 tie with the clock
      const uint64_t kind = rng.UniformUint64(8);
      if (kind < 5) {
        when += rng.UniformDouble() * 200.0;
      } else if (kind == 7) {
        when += 1e5 + rng.UniformDouble() * 1e7;
      }
      pair.Schedule(when);
    }
    while (!pair.empty() &&
           (pair.size() > 512 || rng.UniformUint64(3) == 0)) {
      ASSERT_TRUE(pair.PopBoth()) << "round " << round;
    }
  }
}

TEST(EventQueue, SparseFarFutureEventsPopInOrder) {
  // Events many orders of magnitude apart still pop in time order.
  EventQueue<int> q;
  q.Schedule(0.5, 0);
  q.Schedule(1e6, 1);
  q.Schedule(2e9, 2);
  q.Schedule(3e12, 3);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(q.Pop().second, i);
  }
}

TEST(EventQueue, ScheduleAtLastPoppedTimeIsAllowed) {
  EventQueue<int> q;
  q.Schedule(5.0, 1);
  EXPECT_EQ(q.Pop().second, 1);
  q.Schedule(5.0, 2);  // exactly the last popped timestamp: legal
  EXPECT_EQ(q.Pop().second, 2);
}

#ifndef NDEBUG
TEST(EventQueueDeathTest, SchedulingInThePastAborts) {
  EventQueue<int> q;
  q.Schedule(10.0, 1);
  ASSERT_EQ(q.Pop().second, 1);
  EXPECT_DEATH(q.Schedule(9.0, 2), "scheduling in the past");
}
#endif

TEST(EventQueue, PopUntilRespectsDeadline) {
  EventQueue<int> q;
  q.Schedule(1.0, 1);
  q.Schedule(2.0, 2);
  q.Schedule(10.0, 3);
  EXPECT_TRUE(q.PopUntil(5.0).has_value());
  EXPECT_TRUE(q.PopUntil(5.0).has_value());
  EXPECT_FALSE(q.PopUntil(5.0).has_value());
  EXPECT_EQ(q.size(), 1u);
  const auto last = q.PopUntil(10.0);
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->second, 3);
}

TEST(EventQueue, PopUntilOnEmptyQueue) {
  EventQueue<int> q;
  EXPECT_FALSE(q.PopUntil(100.0).has_value());
}

TEST(EventQueue, MovesPayload) {
  EventQueue<std::unique_ptr<int>> q;
  q.Schedule(1.0, std::make_unique<int>(7));
  auto [time, payload] = q.Pop();
  EXPECT_DOUBLE_EQ(time, 1.0);
  EXPECT_EQ(*payload, 7);
}

TEST(EventQueue, NextTimePeeksWithoutPopping) {
  EventQueue<int> q;
  q.Schedule(3.0, 3);
  q.Schedule(1.0, 1);
  q.Schedule(2.0, 2);
  EXPECT_DOUBLE_EQ(q.NextTime(), 1.0);
  EXPECT_DOUBLE_EQ(q.NextTime(), 1.0);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.Pop().second, 1);
  EXPECT_DOUBLE_EQ(q.NextTime(), 2.0);
  EXPECT_EQ(q.size(), 2u);
}

TEST(EventQueue, TieHeavyChurnWithPopUntilMatchesReference) {
  // Times drawn from a handful of values, so most events tie, scheduled
  // in bursts and drained through PopUntil horizons: every pop must be the
  // reference minimum on (time, insertion order).
  EventQueue<int> q;
  std::vector<std::tuple<double, int, int>> reference;  // (time, seq, id)
  uint64_t state = 777;
  auto next = [&state](uint64_t bound) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return (state >> 33) % bound;
  };
  double now = 0;
  int seq = 0;
  for (int round = 0; round < 300; ++round) {
    const int burst = static_cast<int>(next(6));
    for (int i = 0; i < burst; ++i) {
      const double time = now + static_cast<double>(next(4));
      q.Schedule(time, seq);
      reference.emplace_back(time, seq, seq);
      ++seq;
    }
    const double horizon = now + static_cast<double>(next(3));
    while (auto event = q.PopUntil(horizon)) {
      ASSERT_FALSE(reference.empty());
      const auto min =
          std::min_element(reference.begin(), reference.end());
      EXPECT_EQ(event->first, std::get<0>(*min));
      EXPECT_EQ(event->second, std::get<2>(*min));
      reference.erase(min);
      now = event->first;
    }
    ASSERT_EQ(q.size(), reference.size());
    if (!q.empty()) {
      EXPECT_GT(q.NextTime(), horizon);
    }
    now = std::max(now, horizon);
  }
}

TEST(EventQueueDeathTest, PopEmptyAborts) {
  EventQueue<int> q;
  EXPECT_DEATH(q.Pop(), "");
  EXPECT_DEATH(q.NextTime(), "");
}

}  // namespace
}  // namespace tapejuke
