// TimingScheduler: a decorator that times every call the simulator makes
// into a Scheduler, from outside the library.
//
// It follows the ValidatingScheduler pattern: wrap the scheduler returned
// by CreateScheduler, forward every virtual, and hand the wrapper to the
// simulator. Each forwarded call that does scheduling work is bracketed
// by two steady_clock reads and charged to one bucket (major reschedule,
// arrival, pop, eviction, background enqueue). The wrapper also records
// the (tape, position) stream the run executes — the tape of every major
// reschedule and the position of every popped service entry — so the
// stream can be replayed through a fresh Jukebox afterwards.
//
// The wrapper changes no decision: results are byte-identical with or
// without it, which the benchmark's check mode verifies on every run.

#ifndef PERFBENCH_TIMING_SCHEDULER_H_
#define PERFBENCH_TIMING_SCHEDULER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sched/envelope_scheduler.h"
#include "sched/scheduler.h"

namespace perfbench {

/// Call counts and inclusive host seconds per scheduler entry point. The
/// wrapped scheduler never calls back into the simulator, so inclusive
/// time is self time.
struct SchedTimes {
  int64_t major_calls = 0;
  int64_t arrival_calls = 0;
  int64_t pop_calls = 0;
  double major_s = 0;
  double arrival_s = 0;
  double pop_s = 0;
  double evict_s = 0;
  double background_s = 0;
  /// Sum of the pending-list depth seen at each major reschedule.
  double major_pending_sum = 0;

  double total_s() const {
    return major_s + arrival_s + pop_s + evict_s + background_s;
  }
  /// Scheduler interactions that drive the simulation loop.
  int64_t events() const { return major_calls + arrival_calls + pop_calls; }
  SchedTimes& operator+=(const SchedTimes& other);
};

/// Sums of EnvelopeScheduler::counters() over the wrapped schedulers.
struct EnvelopeTotals {
  int64_t extension_rounds = 0;
  int64_t tapes_rescored = 0;
  int64_t master_rebuilds = 0;
  int64_t epoch_reuses = 0;
  int64_t incremental_inserts = 0;
  /// Arrivals handed to envelope schedulers (the insert-ratio base).
  int64_t arrivals = 0;
  EnvelopeTotals& operator+=(const EnvelopeTotals& other);
};

/// Replay stream encoding: a tape switch to tape t is stored as -(t + 1),
/// a block read at position p as p (positions are >= 0).
using TapeStream = std::vector<int64_t>;

class TimingScheduler : public tapejuke::Scheduler {
 public:
  /// Takes ownership of `inner`; `jukebox`/`catalog` are the ones it was
  /// built against. Appends the executed (tape, position) stream to
  /// `stream`, which must outlive the wrapper.
  TimingScheduler(std::unique_ptr<tapejuke::Scheduler> inner,
                  const tapejuke::Jukebox* jukebox,
                  const tapejuke::Catalog* catalog, TapeStream& stream);

  /// The wrapped scheduler's name, so results carry the same
  /// algorithm_name with or without the wrapper.
  std::string name() const override { return inner_->name(); }

  tapejuke::TapeId MajorReschedule() override;
  std::optional<tapejuke::ServiceEntry> PopNext() override;
  void EnqueueBackground(const tapejuke::Request& request) override;

  const tapejuke::Sweep& sweep() const override { return inner_->sweep(); }
  bool sweep_empty() const override { return inner_->sweep_empty(); }
  size_t sweep_size() const override { return inner_->sweep_size(); }
  size_t pending_size() const override { return inner_->pending_size(); }
  size_t background_size() const override {
    return inner_->background_size();
  }
  bool HasWork() const override { return inner_->HasWork(); }

  std::vector<tapejuke::Request> DrainSweep() override;
  std::vector<tapejuke::Request> EvictUnservablePending() override;
  std::vector<tapejuke::Request> EvictExpired(double now) override;

  void set_decision_sink(tapejuke::obs::DecisionSink* sink) override {
    inner_->set_decision_sink(sink);
  }

  const SchedTimes& times() const { return times_; }

  /// Envelope counters of the wrapped scheduler (all zero unless it is an
  /// EnvelopeScheduler).
  EnvelopeTotals envelope() const;

 protected:
  void OnArrivalNow(const tapejuke::Request& request,
                    tapejuke::Position committed_head) override;

 private:
  std::unique_ptr<tapejuke::Scheduler> inner_;
  TapeStream& stream_;
  SchedTimes times_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_SCHEDULER_H_
