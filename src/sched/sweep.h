// Sweep: the retrieval schedule ("service list") for one mounted tape.
//
// A sweep executes in a single pass over the tape (paper §2.2): a forward
// phase visiting ascending positions, followed by a reverse phase visiting
// descending positions. Entries group all requests satisfied by one block
// read. The incremental (dynamic) schedulers insert newly arrived requests
// into whichever phase still lies ahead of the head.
//
// Every position is a slot times the block size, so each phase is a bitmap
// over slots. A scheduled slot holds its block and a run of requests in
// queue order; the runs are linked lists in one pooled buffer that is reset
// whenever the sweep empties. Inserting, joining and removing are O(1), a
// pop scans the phase's bitmap from the last popped slot, and once the
// buffers have grown, serving a sweep allocates nothing.

#ifndef TAPEJUKE_SCHED_SWEEP_H_
#define TAPEJUKE_SCHED_SWEEP_H_

#include <bit>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "sched/request.h"
#include "tape/types.h"

namespace tapejuke {

/// One block read in a sweep, satisfying one or more requests.
///
/// `requests` is a view into a buffer of the Sweep that handed the entry
/// out. An entry from Sweep::Pop stays valid until that sweep's next Pop;
/// one from Sweep::RemoveAt until its next RemoveAt. Inserting into,
/// draining or rebuilding the sweep in between leaves it intact, so a read
/// in flight can be settled while arrivals join the same sweep. Copy the
/// requests out to keep them longer.
struct ServiceEntry {
  Position position = -1;  ///< block start position on the mounted tape
  BlockId block = kInvalidBlock;
  std::span<const Request> requests;  ///< requests satisfied by this read
};

/// Ordered service list with a forward and a reverse phase.
class Sweep {
 public:
  enum class Phase { kForward, kReverse };

  /// An owning copy of one entry (see Entries()).
  struct OwnedEntry {
    Position position = -1;
    BlockId block = kInvalidBlock;
    std::vector<Request> requests;
  };

  /// A scheduled read: where, and which block.
  struct Read {
    Position position = -1;
    BlockId block = kInvalidBlock;
  };

  /// A sweep whose positions are multiples of `block_mb` (the block size
  /// of the tape it serves); the default of 1 admits any position >= 0.
  explicit Sweep(int64_t block_mb = 1);

  bool empty() const { return size() == 0; }
  size_t size() const { return count_[0] + count_[1]; }

  /// The phase the next popped entry belongs to.
  Phase phase() const {
    return count_[0] == 0 ? Phase::kReverse : Phase::kForward;
  }

  /// Clears both phases.
  void Clear();

  /// Schedules `request` at `position` in `phase`: it joins the entry
  /// already scheduled there, or opens one. Dies if `position` is not a
  /// multiple of the block size, holds another block, or is scheduled in
  /// the other phase.
  void Add(Phase phase, Position position, const Request& request);

  /// Removes and returns the next entry to service (forward first). The
  /// entry is a view; see ServiceEntry.
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

  /// Removes the entry at `position` (either phase) and returns it, or
  /// nullopt if nothing is scheduled there. The entry is a view into a
  /// buffer of its own, valid until the next RemoveAt.
  std::optional<ServiceEntry> RemoveAt(Position position);

  /// Empties the sweep, appending every request it held to `out` in
  /// execution order. Leaves the last popped entry intact.
  void Drain(std::vector<Request>* out);

  /// The scheduled read farthest out on the tape (the end of the forward
  /// phase or the start of the reverse phase), or nullopt when empty.
  std::optional<Read> OuterEdge() const;

  /// Calls `visit(request)` for every scheduled request in execution
  /// order.
  template <typename Visit>
  void ForEach(Visit&& visit) const {
    ForEachSlot([&](int64_t slot) {
      for (uint32_t n = runs_[static_cast<size_t>(slot)].head; n != kNone;
           n = pool_[n].next) {
        visit(pool_[n].request);
      }
    });
  }

  /// All entries in execution order (forward then reverse), copied; for
  /// inspection.
  std::vector<OwnedEntry> Entries() const;

  /// Positions of all remaining entries in execution order.
  std::vector<Position> Positions() const;

 private:
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();
  /// Empty-phase cursors: the first slot scheduled moves them onto itself.
  static constexpr int64_t kForwardUnset = std::numeric_limits<int64_t>::max();
  static constexpr int64_t kReverseUnset = -1;

  /// A scheduled slot: its block and its run of requests in pool_.
  struct Run {
    BlockId block = kInvalidBlock;
    uint32_t head = kNone;
    uint32_t tail = kNone;
  };
  /// One request of a run, linked to the next in queue order.
  struct Node {
    Request request;
    uint32_t next = kNone;
  };

  /// The slot of `position`; dies unless it is a non-negative multiple of
  /// the block size.
  int64_t SlotOf(Position position) const;
  /// Phase index (0 forward, 1 reverse) holding `slot`, or -1.
  int ScheduledPhase(int64_t slot) const;
  /// Grows the slot tables to hold `slot`.
  void Reserve(int64_t slot);
  /// Schedules a new entry for `request` at `slot` in phase `p`.
  void Open(int p, int64_t slot, const Request& request);
  /// Appends `request` to the run at `slot`.
  void Append(int64_t slot, const Request& request);
  /// Unschedules `slot` from phase `p` and copies its run into `out`.
  ServiceEntry Take(int p, int64_t slot, std::vector<Request>* out);

  /// Calls `visit(slot)` for every scheduled slot in execution order.
  template <typename Visit>
  void ForEachSlot(Visit&& visit) const {
    for (size_t w = 0; w < bits_[0].size(); ++w) {
      for (uint64_t bits = bits_[0][w]; bits != 0; bits &= bits - 1) {
        visit(static_cast<int64_t>(w * 64) + std::countr_zero(bits));
      }
    }
    for (size_t w = bits_[1].size(); w-- > 0;) {
      for (uint64_t bits = bits_[1][w]; bits != 0;) {
        const int top = 63 - std::countl_zero(bits);
        visit(static_cast<int64_t>(w * 64) + top);
        bits &= ~(uint64_t{1} << top);
      }
    }
  }

  int64_t block_mb_;
  /// Scheduled slots per phase: [0] forward, [1] reverse.
  std::vector<uint64_t> bits_[2];
  size_t count_[2] = {0, 0};
  /// Where each phase's next pop scans from: no forward slot lies below
  /// cursor_[0] and no reverse slot above cursor_[1].
  int64_t cursor_[2] = {kForwardUnset, kReverseUnset};
  /// Per slot, the scheduled block and its run (valid while scheduled).
  std::vector<Run> runs_;
  /// Every run's requests; reset when the sweep empties.
  std::vector<Node> pool_;
  /// The last popped and the last removed entry's requests.
  std::vector<Request> popped_;
  std::vector<Request> removed_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_SWEEP_H_
