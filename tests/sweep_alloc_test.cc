// Steady-state allocation test for sweep execution.
//
// Replaces the global operator new/delete with counting wrappers over
// malloc/free (which is why this test is its own executable), warms up a
// dynamic max-bandwidth GreedyScheduler on a small jukebox, and then checks
// that a repeated service cycle allocates nothing: arrivals, a major
// reschedule, pops with arrivals joining scheduled entries, opening new
// ones and deferring to the pending list in between, and pops to empty;
// and the same cycle with batched arrivals. A second fixture checks that a
// warm envelope-extension reschedule (extension rounds and step-5 shrinks
// included) allocates nothing either.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <vector>

#include "layout/catalog.h"
#include "layout/placement.h"
#include "sched/envelope_scheduler.h"
#include "sched/greedy_scheduler.h"
#include "tape/jukebox.h"
#include "util/check.h"

namespace {

/// operator new calls so far. The test runs on one thread.
int64_t g_allocations = 0;

void* CountedAlloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace tapejuke {
namespace {

class SweepAllocTest : public ::testing::Test {
 protected:
  SweepAllocTest() : jukebox_(Config()) {
    LayoutSpec spec;
    spec.num_replicas = 1;
    spec.start_position = 0.5;
    catalog_.emplace(LayoutBuilder::Build(&jukebox_, spec).value());
    scheduler_.emplace(&jukebox_, &*catalog_, TapePolicy::kMaxBandwidth,
                       /*dynamic=*/true);
    for (BlockId b = 0; b < catalog_->num_blocks(); b += 7) {
      blocks_.push_back(b);
    }
  }

  static JukeboxConfig Config() {
    JukeboxConfig config;
    config.num_tapes = 4;
    config.timing.tape_capacity_mb = 1600;  // 100 slots of 16 MB
    return config;
  }

  /// The next block of a sequence that restarts every cycle: every 7th
  /// block, which spreads them over every tape, so arrivals join, open and
  /// defer.
  BlockId NextBlock() {
    const BlockId block = blocks_[next_];
    next_ = (next_ + 1) % blocks_.size();
    return block;
  }

  void Arrive(int count) {
    for (int i = 0; i < count; ++i) {
      scheduler_->OnArrival(Request{id_, NextBlock(), 0.0}, jukebox_.head());
      ++id_;
    }
  }

  /// One service cycle: serves every queued request, with arrivals landing
  /// while each sweep runs. Returns the requests served.
  int64_t Cycle() {
    int64_t served = 0;
    next_ = 0;
    Arrive(40);
    while (scheduler_->HasWork()) {
      const TapeId tape = scheduler_->MajorReschedule();
      TJ_CHECK_NE(tape, kInvalidTape);
      jukebox_.SwitchTo(tape);
      int pops = 0;
      while (std::optional<ServiceEntry> entry = scheduler_->PopNext()) {
        jukebox_.ReadBlockAt(entry->position);
        served += static_cast<int64_t>(entry->requests.size());
        // Arrivals only for the first sweeps of the cycle, so it ends.
        if (++pops % 3 == 0 && served < 120) {
          for (int i = 0; i < 4; ++i) {
            const size_t sweep = scheduler_->sweep_size();
            const size_t pending = scheduler_->pending_size();
            Arrive(1);
            if (scheduler_->sweep_size() > sweep) {
              ++opened_;
            } else if (scheduler_->pending_size() > pending) {
              ++deferred_;
            } else {
              ++joined_;
            }
          }
        }
      }
    }
    return served;
  }

  Jukebox jukebox_;
  std::optional<Catalog> catalog_;
  std::optional<GreedyScheduler> scheduler_;
  std::vector<BlockId> blocks_;
  size_t next_ = 0;
  RequestId id_ = 0;
  /// What the arrivals during sweeps did.
  int64_t opened_ = 0;
  int64_t joined_ = 0;
  int64_t deferred_ = 0;
};

TEST_F(SweepAllocTest, SteadyStateCycleAllocatesNothing) {
  // Warm-up: the scheduler's buffers grow to their working size.
  for (int i = 0; i < 5; ++i) Cycle();
  const int64_t before = g_allocations;
  int64_t served = 0;
  for (int i = 0; i < 20; ++i) served += Cycle();
  const int64_t allocations = g_allocations - before;
  // Arrivals landed while the sweeps ran, and did all three things.
  EXPECT_GT(served, 20 * 40);
  EXPECT_GT(opened_, 0);
  EXPECT_GT(joined_, 0);
  EXPECT_GT(deferred_, 0);
  EXPECT_EQ(allocations, 0) << "over 20 cycles serving " << served
                            << " requests";
}

TEST_F(SweepAllocTest, BatchedArrivalsAllocateNothing) {
  // Staged arrivals flush in batches of 8; the staging buffer keeps its
  // capacity across flushes.
  SchedulerOptions options;
  options.arrival_batch = 8;
  scheduler_.emplace(&jukebox_, &*catalog_, TapePolicy::kMaxBandwidth,
                     /*dynamic=*/true, options);
  for (int i = 0; i < 5; ++i) Cycle();
  const int64_t before = g_allocations;
  int64_t served = 0;
  for (int i = 0; i < 20; ++i) served += Cycle();
  const int64_t allocations = g_allocations - before;
  EXPECT_GT(served, 20 * 40);
  EXPECT_EQ(allocations, 0) << "over 20 cycles serving " << served
                            << " requests";
}

class EnvelopeAllocTest : public ::testing::Test {
 protected:
  EnvelopeAllocTest() : jukebox_(Config()) {
    // Fig. 8's shape: a vertical layout with the hot region at the end of
    // every tape (SP 1) and two extra copies of each hot block, so hot
    // requests lie past the envelopes the cold ones pin and need
    // extension rounds, and extensions make edge blocks redundant.
    LayoutSpec spec;
    spec.num_replicas = 2;
    spec.layout = HotLayout::kVertical;
    spec.start_position = 1.0;
    catalog_.emplace(LayoutBuilder::Build(&jukebox_, spec).value());
    scheduler_.emplace(&jukebox_, &*catalog_, TapePolicy::kMaxBandwidth);
  }

  static JukeboxConfig Config() {
    JukeboxConfig config;
    config.num_tapes = 10;
    config.timing.tape_capacity_mb = 1600;  // 100 slots of 16 MB
    return config;
  }

  /// Refill, then reschedule and drain until the queue is empty. The same
  /// blocks every cycle: two requests in three hot, the rest spread over
  /// the cold blocks. Returns the requests served.
  int64_t Cycle() {
    const int64_t hot = catalog_->num_hot_blocks();
    const int64_t cold = catalog_->num_cold_blocks();
    for (int64_t i = 0; i < 60; ++i) {
      const BlockId block =
          i % 3 != 0 ? (i * 7) % hot : hot + (i * 13) % cold;
      scheduler_->OnArrival(Request{id_++, block, 0.0}, jukebox_.head());
    }
    int64_t served = 0;
    while (scheduler_->HasWork()) {
      const TapeId tape = scheduler_->MajorReschedule();
      TJ_CHECK_NE(tape, kInvalidTape);
      jukebox_.SwitchTo(tape);
      while (std::optional<ServiceEntry> entry = scheduler_->PopNext()) {
        jukebox_.ReadBlockAt(entry->position);
        served += static_cast<int64_t>(entry->requests.size());
      }
    }
    return served;
  }

  Jukebox jukebox_;
  std::optional<Catalog> catalog_;
  std::optional<EnvelopeScheduler> scheduler_;
  RequestId id_ = 0;
};

TEST_F(EnvelopeAllocTest, WarmRescheduleAllocatesNothing) {
  for (int i = 0; i < 5; ++i) Cycle();
  const EnvelopeScheduler::EnvelopeCounters warm = scheduler_->counters();
  const int64_t before = g_allocations;
  int64_t served = 0;
  for (int i = 0; i < 20; ++i) served += Cycle();
  const int64_t allocations = g_allocations - before;
  const EnvelopeScheduler::EnvelopeCounters& after = scheduler_->counters();
  // The measured cycles ran the whole kernel: extension rounds and step-5
  // shrinks, not just step-2 absorbs.
  EXPECT_EQ(served, 20 * 60);
  EXPECT_GT(after.major_reschedules, warm.major_reschedules);
  EXPECT_GT(after.extension_rounds, warm.extension_rounds);
  EXPECT_GT(after.shrink_moves, warm.shrink_moves);
  EXPECT_EQ(allocations, 0) << "over 20 cycles serving " << served
                            << " requests";
}

/// Keeps the allocation below observable, so it cannot be elided.
std::vector<int>* volatile g_sink = nullptr;

TEST_F(SweepAllocTest, CounterSeesAllocations) {
  const int64_t before = g_allocations;
  g_sink = new std::vector<int>(100);
  const int64_t after = g_allocations;
  delete g_sink;
  EXPECT_EQ(after - before, 2);  // the vector and its buffer
}

}  // namespace
}  // namespace tapejuke
