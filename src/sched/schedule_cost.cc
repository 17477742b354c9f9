#include "sched/schedule_cost.h"

#include <algorithm>

#include "util/check.h"

namespace tapejuke {

ScheduleCost::ScheduleCost(const TimingModel* model, int64_t block_size_mb)
    : model_(model), block_size_mb_(block_size_mb) {
  TJ_CHECK(model != nullptr);
  TJ_CHECK_GT(block_size_mb, 0);
}

double ScheduleCost::ExecutionSeconds(
    Position start_head, const std::vector<Position>& ordered_positions) const {
  double seconds = 0;
  Position head = start_head;
  for (const Position p : ordered_positions) {
    seconds += model_->LocateAndReadTime(head, p, block_size_mb_);
    head = p + block_size_mb_;
  }
  return seconds;
}

std::vector<Position> ScheduleCost::SweepOrder(Position head,
                                               std::vector<Position> positions) {
  if (!std::is_sorted(positions.begin(), positions.end())) {
    std::sort(positions.begin(), positions.end());
  }
  positions.erase(std::unique(positions.begin(), positions.end()),
                  positions.end());
  auto split = std::lower_bound(positions.begin(), positions.end(), head);
  std::vector<Position> order(split, positions.end());  // forward, ascending
  // Reverse phase: below-head positions in descending order.
  for (auto it = split; it != positions.begin();) {
    --it;
    order.push_back(*it);
  }
  return order;
}

SweepCostBreakdown ScheduleCost::EstimateVisit(
    TapeId target, TapeId mounted, Position head,
    const std::vector<Position>& positions) const {
  SweepCostBreakdown cost;
  Position start_head = head;
  if (target != mounted) {
    cost.switch_seconds = (mounted == kInvalidTape)
                              ? model_->SwitchTime()
                              : model_->FullSwitchTime(head);
    start_head = 0;
  }
  const std::vector<Position> order = SweepOrder(start_head, positions);
  cost.execution_seconds = ExecutionSeconds(start_head, order);
  cost.blocks = static_cast<int64_t>(order.size());
  cost.bytes_mb = cost.blocks * block_size_mb_;
  return cost;
}

}  // namespace tapejuke
