// Sweep: the retrieval schedule ("service list") for one mounted tape.
//
// A sweep executes in a single pass over the tape (paper §2.2): a forward
// phase visiting ascending positions, followed by a reverse phase visiting
// descending positions. Entries group all requests satisfied by one block
// read. The incremental (dynamic) schedulers insert newly arrived requests
// into whichever phase still lies ahead of the head.

#ifndef TAPEJUKE_SCHED_SWEEP_H_
#define TAPEJUKE_SCHED_SWEEP_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "sched/request.h"
#include "tape/types.h"

namespace tapejuke {

/// One block read in a sweep, satisfying one or more requests.
struct ServiceEntry {
  Position position = -1;  ///< block start position on the mounted tape
  BlockId block = kInvalidBlock;
  std::vector<Request> requests;  ///< requests satisfied by this read
};

/// Ordered service list with a forward and a reverse phase.
class Sweep {
 public:
  enum class Phase { kForward, kReverse };

  Sweep() = default;

  bool empty() const { return forward_.empty() && reverse_.empty(); }
  size_t size() const { return forward_.size() + reverse_.size(); }

  /// The phase the next popped entry belongs to.
  Phase phase() const {
    return forward_.empty() ? Phase::kReverse : Phase::kForward;
  }

  /// Clears both phases.
  void Clear();

  /// Appends an entry to the forward phase; positions must be appended in
  /// strictly ascending order.
  void AppendForward(ServiceEntry entry);

  /// Appends an entry to the reverse phase; positions must be appended in
  /// strictly descending order.
  void AppendReverse(ServiceEntry entry);

  /// Removes and returns the next entry to service (forward first).
  std::optional<ServiceEntry> Pop();

  /// Inserts `request` (for its block at `position` on the sweep's tape)
  /// if that point still lies ahead of `committed_head` in the remaining
  /// trajectory of the sweep: ahead in the forward phase (position >=
  /// committed_head while the forward phase is active), or ahead in the
  /// reverse phase (position < committed_head). If an entry is already
  /// scheduled at `position` (a tape holds at most one copy of a block, so
  /// it reads this block), the request joins it for free. If
  /// `allow_reverse` is false, insertion into the reverse phase is refused
  /// (ablation knob). Returns true if the request was absorbed.
  bool InsertRequest(const Request& request, Position position,
                     Position committed_head, bool allow_reverse);

  /// True if `position` still lies ahead of `committed_head` (an
  /// InsertRequest at this position would succeed).
  bool IsAhead(Position position, Position committed_head,
               bool allow_reverse) const;

  /// All entries in execution order (forward then reverse); for inspection.
  std::vector<ServiceEntry> Entries() const;

  /// Removes the entry at `position` (either phase) and returns it, or
  /// nullopt if nothing is scheduled there.
  std::optional<ServiceEntry> RemoveAt(Position position);

  /// Positions of all remaining entries in execution order.
  std::vector<Position> Positions() const;

  const std::deque<ServiceEntry>& forward() const { return forward_; }
  const std::deque<ServiceEntry>& reverse() const { return reverse_; }

 private:
  using Iterator = std::deque<ServiceEntry>::iterator;

  /// First forward entry at or above `position` (the phase ascends).
  Iterator ForwardBound(Position position);
  /// First reverse entry at or below `position` (the phase descends).
  Iterator ReverseBound(Position position);

  std::deque<ServiceEntry> forward_;  ///< ascending positions
  std::deque<ServiceEntry> reverse_;  ///< descending positions
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_SWEEP_H_
