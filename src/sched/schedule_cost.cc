#include "sched/schedule_cost.h"

#include <algorithm>
#include <bit>

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
    std::span<const uint64_t> slot_bits) const {
  SweepCostBreakdown cost;
  Position start_head = head;
  if (target != mounted) {
    cost.switch_seconds = (mounted == kInvalidTape)
                              ? model_->SwitchTime()
                              : model_->FullSwitchTime(head);
    start_head = 0;
  }
  TJ_DCHECK(start_head >= 0);
  const TimingModel& model = *model_;
  const int64_t block_mb = block_size_mb_;
  double seconds = 0;
  int64_t blocks = 0;
  Position at = start_head;
  const auto visit = [&](size_t slot) {
    const Position p = static_cast<Position>(slot) * block_mb;
    seconds += model.LocateAndReadTime(at, p, block_mb);
    at = p + block_mb;
    ++blocks;
  };
  // The split is the first slot whose position is at or past the start
  // head; heads need not be block-aligned, hence the ceiling. Words are
  // walked in place: forward from the split, then back down below it,
  // adding the terms in ExecutionSeconds' order.
  const auto split =
      static_cast<size_t>((start_head + block_mb - 1) / block_mb);
  const size_t split_word = split / 64;
  const uint64_t below =
      split % 64 == 0 ? 0 : ~uint64_t{0} >> (64 - split % 64);
  const size_t words = slot_bits.size();
  for (size_t w = split_word; w < words; ++w) {
    uint64_t bits = slot_bits[w];
    if (w == split_word) bits &= ~below;
    for (; bits != 0; bits &= bits - 1) {
      visit(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
    }
  }
  for (size_t w = std::min(split_word + 1, words); w-- > 0;) {
    uint64_t bits = slot_bits[w];
    if (w == split_word) bits &= below;
    while (bits != 0) {
      const int top = 63 - std::countl_zero(bits);
      visit(w * 64 + static_cast<size_t>(top));
      bits ^= uint64_t{1} << top;
    }
  }
  cost.execution_seconds = seconds;
  cost.blocks = blocks;
  cost.bytes_mb = blocks * block_mb;
  return cost;
}

}  // namespace tapejuke
