#include "sched/schedule_cost.h"

#include <algorithm>
#include <functional>

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
  // Walk SweepOrder's sequence in place over ascending, distinct positions
  // (forward from the split, then back down), adding the terms in
  // ExecutionSeconds' order so the sum is bit-for-bit the same. Candidate
  // positions already are ascending and distinct; other input is sorted
  // and deduplicated into a copy first.
  std::vector<Position> sorted;
  const std::vector<Position>* walk = &positions;
  if (std::adjacent_find(positions.begin(), positions.end(),
                         std::greater_equal<Position>()) != positions.end()) {
    sorted = positions;
    std::sort(sorted.begin(), sorted.end());
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
    walk = &sorted;
  }
  const auto split = std::lower_bound(walk->begin(), walk->end(), start_head);
  double seconds = 0;
  Position at = start_head;
  const auto visit = [&](Position p) {
    seconds += model_->LocateAndReadTime(at, p, block_size_mb_);
    at = p + block_size_mb_;
  };
  for (auto it = split; it != walk->end(); ++it) visit(*it);
  for (auto it = split; it != walk->begin();) visit(*--it);
  cost.execution_seconds = seconds;
  cost.blocks = static_cast<int64_t>(walk->size());
  cost.bytes_mb = cost.blocks * block_size_mb_;
  return cost;
}

}  // namespace tapejuke
