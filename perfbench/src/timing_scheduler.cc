#include "timing_scheduler.h"

#include <chrono>

#include "util/check.h"

namespace perfbench {

using tapejuke::Request;
using tapejuke::ServiceEntry;
using tapejuke::TapeId;

namespace {

using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

SchedTimes& SchedTimes::operator+=(const SchedTimes& other) {
  major_calls += other.major_calls;
  arrival_calls += other.arrival_calls;
  pop_calls += other.pop_calls;
  major_s += other.major_s;
  arrival_s += other.arrival_s;
  pop_s += other.pop_s;
  evict_s += other.evict_s;
  background_s += other.background_s;
  major_pending_sum += other.major_pending_sum;
  return *this;
}

EnvelopeTotals& EnvelopeTotals::operator+=(const EnvelopeTotals& other) {
  extension_rounds += other.extension_rounds;
  tapes_rescored += other.tapes_rescored;
  master_rebuilds += other.master_rebuilds;
  epoch_reuses += other.epoch_reuses;
  incremental_inserts += other.incremental_inserts;
  arrivals += other.arrivals;
  return *this;
}

TimingScheduler::TimingScheduler(std::unique_ptr<tapejuke::Scheduler> inner,
                                 const tapejuke::Jukebox* jukebox,
                                 const tapejuke::Catalog* catalog,
                                 TapeStream& stream)
    : Scheduler(jukebox, catalog, tapejuke::SchedulerOptions{}),
      inner_(std::move(inner)),
      stream_(stream) {
  TJ_CHECK(inner_ != nullptr);
}

void TimingScheduler::OnArrivalNow(const Request& request,
                                   tapejuke::Position committed_head) {
  const Clock::time_point start = Clock::now();
  inner_->OnArrival(request, committed_head);
  times_.arrival_s += Since(start);
  ++times_.arrival_calls;
}

TapeId TimingScheduler::MajorReschedule() {
  times_.major_pending_sum += static_cast<double>(inner_->pending_size());
  const Clock::time_point start = Clock::now();
  const TapeId tape = inner_->MajorReschedule();
  times_.major_s += Since(start);
  ++times_.major_calls;
  if (tape != tapejuke::kInvalidTape) {
    stream_.push_back(-(static_cast<int64_t>(tape) + 1));
  }
  return tape;
}

std::optional<ServiceEntry> TimingScheduler::PopNext() {
  const Clock::time_point start = Clock::now();
  std::optional<ServiceEntry> entry = inner_->PopNext();
  times_.pop_s += Since(start);
  ++times_.pop_calls;
  if (entry.has_value()) {
    stream_.push_back(entry->position);
  }
  return entry;
}

void TimingScheduler::EnqueueBackground(const Request& request) {
  const Clock::time_point start = Clock::now();
  inner_->EnqueueBackground(request);
  times_.background_s += Since(start);
}

std::vector<Request> TimingScheduler::DrainSweep() {
  const Clock::time_point start = Clock::now();
  std::vector<Request> drained = inner_->DrainSweep();
  times_.evict_s += Since(start);
  return drained;
}

std::vector<Request> TimingScheduler::EvictUnservablePending() {
  const Clock::time_point start = Clock::now();
  std::vector<Request> evicted = inner_->EvictUnservablePending();
  times_.evict_s += Since(start);
  return evicted;
}

std::vector<Request> TimingScheduler::EvictExpired(double now) {
  const Clock::time_point start = Clock::now();
  std::vector<Request> expired = inner_->EvictExpired(now);
  times_.evict_s += Since(start);
  return expired;
}

EnvelopeTotals TimingScheduler::envelope() const {
  EnvelopeTotals totals;
  const auto* envelope =
      dynamic_cast<const tapejuke::EnvelopeScheduler*>(inner_.get());
  if (envelope == nullptr) return totals;
  const tapejuke::EnvelopeScheduler::EnvelopeCounters& c =
      envelope->counters();
  totals.extension_rounds = c.extension_rounds;
  totals.tapes_rescored = c.tapes_rescored;
  totals.master_rebuilds = c.master_rebuilds;
  totals.epoch_reuses = c.epoch_reuses;
  totals.incremental_inserts = c.incremental_inserts;
  totals.arrivals = times_.arrival_calls;
  return totals;
}

}  // namespace perfbench
