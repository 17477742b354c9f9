#include "sched/sweep.h"

#include <algorithm>

#include "util/check.h"

namespace tapejuke {

void Sweep::Clear() {
  forward_.clear();
  reverse_.clear();
}

void Sweep::AppendForward(ServiceEntry entry) {
  TJ_CHECK(forward_.empty() || forward_.back().position < entry.position)
      << "forward phase must be appended in ascending position order";
  forward_.push_back(std::move(entry));
}

void Sweep::AppendReverse(ServiceEntry entry) {
  TJ_CHECK(reverse_.empty() || reverse_.back().position > entry.position)
      << "reverse phase must be appended in descending position order";
  reverse_.push_back(std::move(entry));
}

std::optional<ServiceEntry> Sweep::Pop() {
  std::deque<ServiceEntry>& phase = forward_.empty() ? reverse_ : forward_;
  if (phase.empty()) return std::nullopt;
  ServiceEntry entry = std::move(phase.front());
  phase.pop_front();
  return entry;
}

bool Sweep::IsAhead(Position position, Position committed_head,
                    bool allow_reverse) const {
  if (empty()) return false;
  if (phase() == Phase::kForward) {
    if (position >= committed_head) return true;
    return allow_reverse;  // joins (or opens) the reverse phase
  }
  // Reverse phase: the head is moving down; only lower positions remain.
  return allow_reverse && position < committed_head;
}

Sweep::Iterator Sweep::ForwardBound(Position position) {
  return std::lower_bound(
      forward_.begin(), forward_.end(), position,
      [](const ServiceEntry& e, Position p) { return e.position < p; });
}

Sweep::Iterator Sweep::ReverseBound(Position position) {
  return std::lower_bound(
      reverse_.begin(), reverse_.end(), position,
      [](const ServiceEntry& e, Position p) { return e.position > p; });
}

bool Sweep::InsertRequest(const Request& request, Position position,
                          Position committed_head, bool allow_reverse) {
  // A read already scheduled at this position satisfies the request for
  // free; it reads this very block, since no two blocks share a position.
  const Iterator fit = ForwardBound(position);
  const Iterator rit = ReverseBound(position);
  ServiceEntry* scheduled =
      fit != forward_.end() && fit->position == position   ? &*fit
      : rit != reverse_.end() && rit->position == position ? &*rit
                                                           : nullptr;
  if (scheduled != nullptr) {
    TJ_CHECK_EQ(scheduled->block, request.block)
        << "two blocks cannot share position" << position;
    scheduled->requests.push_back(request);
    return true;
  }
  if (!IsAhead(position, committed_head, allow_reverse)) return false;

  ServiceEntry entry{position, request.block, {request}};
  if (phase() == Phase::kForward && position >= committed_head) {
    forward_.insert(fit, std::move(entry));
  } else {
    reverse_.insert(rit, std::move(entry));
  }
  return true;
}

std::vector<ServiceEntry> Sweep::Entries() const {
  std::vector<ServiceEntry> all(forward_.begin(), forward_.end());
  all.insert(all.end(), reverse_.begin(), reverse_.end());
  return all;
}

std::optional<ServiceEntry> Sweep::RemoveAt(Position position) {
  Iterator it = ForwardBound(position);
  std::deque<ServiceEntry>* phase = &forward_;
  if (it == forward_.end() || it->position != position) {
    it = ReverseBound(position);
    phase = &reverse_;
    if (it == reverse_.end() || it->position != position) return std::nullopt;
  }
  ServiceEntry entry = std::move(*it);
  phase->erase(it);
  return entry;
}

std::vector<Position> Sweep::Positions() const {
  std::vector<Position> positions;
  positions.reserve(size());
  for (const auto& entry : forward_) positions.push_back(entry.position);
  for (const auto& entry : reverse_) positions.push_back(entry.position);
  return positions;
}

}  // namespace tapejuke
