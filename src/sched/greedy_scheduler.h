// The static and dynamic scheduling algorithms of paper §3.1.
//
// The major rescheduler selects a tape with one of the five tape-selection
// policies and greedily schedules *all* pending requests satisfiable by that
// tape, sorted into a single sweep. Static variants defer every new arrival
// to the pending list; dynamic variants insert arrivals for a mounted
// tape into its drive's running sweep when the requested block still lies
// ahead of the head.

#ifndef TAPEJUKE_SCHED_GREEDY_SCHEDULER_H_
#define TAPEJUKE_SCHED_GREEDY_SCHEDULER_H_

#include <string>

#include "sched/scheduler.h"

namespace tapejuke {

/// Static (defer-all) or dynamic (insert-on-the-fly) greedy scheduler.
class GreedyScheduler : public Scheduler {
 public:
  GreedyScheduler(const Jukebox* jukebox, const Catalog* catalog,
                  TapePolicy policy, bool dynamic,
                  const SchedulerOptions& options = {});

  std::string name() const override;

  TapePolicy policy() const { return policy_; }
  bool dynamic() const { return dynamic_; }

  TapeId MajorReschedule() override;

 protected:
  void OnArrivalNow(const Request& request, Position committed_head) override;

 private:
  TapePolicy policy_;
  bool dynamic_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_GREEDY_SCHEDULER_H_
