// Discrete-event simulation core: a deterministic time-ordered event queue.
//
// Events with equal timestamps are delivered in insertion order (a strictly
// increasing sequence number breaks ties), which keeps simulations
// reproducible regardless of queue implementation details.
//
// Implementation: a binary min-heap on (time, seq) in a std::vector. The
// simulator keeps only client timers here (deadline expiries), a few
// hundred at most per jukebox, where a plain heap is the cheapest
// structure (docs/PERFORMANCE.md). Scheduling in the past (before
// the last popped timestamp) would silently corrupt the order and is
// rejected by a TJ_DCHECK.

#ifndef TAPEJUKE_SIM_EVENT_QUEUE_H_
#define TAPEJUKE_SIM_EVENT_QUEUE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.h"

namespace tapejuke {

/// Min-heap of timestamped events carrying a payload of type T.
template <typename T>
class EventQueue {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }

  /// Schedules `payload` at simulation time `time` (seconds). Times may not
  /// be NaN, and may not precede the last popped timestamp: the queue only
  /// moves forward, and a past event would be delivered out of order.
  void Schedule(double time, T payload) {
    TJ_DCHECK(time == time) << "event time is NaN";
    TJ_DCHECK(time >= last_popped_)
        << "scheduling in the past: " << time << " < last popped "
        << last_popped_;
    heap_.push_back(Event{time, next_seq_++, std::move(payload)});
    std::push_heap(heap_.begin(), heap_.end(), Later);
  }

  /// Timestamp of the earliest event; queue must be non-empty.
  double NextTime() const {
    TJ_CHECK(!heap_.empty());
    return heap_.front().time;
  }

  /// Pops the earliest event; queue must be non-empty.
  std::pair<double, T> Pop() {
    TJ_CHECK(!heap_.empty());
    std::pop_heap(heap_.begin(), heap_.end(), Later);
    Event event = std::move(heap_.back());
    heap_.pop_back();
    last_popped_ = event.time;
    return {event.time, std::move(event.payload)};
  }

  /// Pops the earliest event if its time is <= `time`.
  std::optional<std::pair<double, T>> PopUntil(double time) {
    if (heap_.empty() || heap_.front().time > time) return std::nullopt;
    return Pop();
  }

 private:
  struct Event {
    double time;
    uint64_t seq;
    T payload;
  };

  /// Heap order: std::*_heap keep the greatest element in front, so
  /// "greater" here means later in (time, seq).
  static bool Later(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }

  std::vector<Event> heap_;
  double last_popped_ = 0;  ///< monotone floor for Schedule
  uint64_t next_seq_ = 0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_EVENT_QUEUE_H_
