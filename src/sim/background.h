// Background drive work: the one channel through which the single-drive
// Simulator interleaves non-client work with client reads.
//
// Three producers feed it: scrub/repair (RepairManager), the delta write
// path's dirty-block flushes (WriteBuffer), and the §4.8 gradual replica
// fill (ReplicaFiller). All have the same shape: work piggybacked on a
// mount the client schedule already paid for, right before the next major
// reschedule, plus work that uses an otherwise idle drive. The simulator
// charges every second a producer returns to DriveActivity::kBackground
// and delivers the client arrivals that fall inside it.

#ifndef TAPEJUKE_SIM_BACKGROUND_H_
#define TAPEJUKE_SIM_BACKGROUND_H_

#include "sched/request.h"

namespace tapejuke {

class BackgroundWork {
 public:
  virtual ~BackgroundWork() = default;

  /// Tape-switch-boundary hook, called right before every major
  /// reschedule with the sweep drained and client work pending. Returns
  /// drive seconds spent.
  virtual double AtSweepBoundary(double now) = 0;

  /// Earliest time >= `now` at which IdleQuantum would have work to do
  /// (+infinity when it has none). The simulator only burns idle time on
  /// background work when this is at hand before the next client event.
  virtual double NextIdleWorkTime(double now) = 0;

  /// One idle-drive work quantum.
  struct Quantum {
    double seconds = 0.0;
    /// The work masked replicas dead (the simulator must evict
    /// now-unservable queued requests).
    bool masked_replicas = false;
  };
  virtual Quantum IdleQuantum(double now) = 0;

  /// A client request completed at `now`.
  virtual void OnClientCompletion(const Request& request, double now) {
    (void)request;
    (void)now;
  }
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SIM_BACKGROUND_H_
