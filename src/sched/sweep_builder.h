// The pending walk of a major reschedule, in two halves.
//
// BuildTapeCandidates walks a request queue once against the catalog and
// records, per tape, what a visit could serve: a bitmap of the slots it
// would read (for tape selection, which scores the bits in place) and a
// member list of (queue index, replica slot) pairs, whose length is the
// request count. Once a tape is chosen, ExtractSweepForTape builds its
// sweep from that tape's member list alone and compacts the queue, so the
// catalog is walked once per reschedule. Scheduler::ScheduleVisit is the
// one caller of both halves.

#ifndef TAPEJUKE_SCHED_SWEEP_BUILDER_H_
#define TAPEJUKE_SCHED_SWEEP_BUILDER_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "layout/catalog.h"
#include "sched/request.h"
#include "sched/sweep.h"
#include "tape/jukebox.h"
#include "tape/types.h"

namespace tapejuke {

/// One request a tape can serve: its index in the walked queue and the
/// slot of its live replica on the tape.
struct CandidateMember {
  uint32_t index = 0;
  int32_t slot = 0;
};

/// Candidate work available on one tape, used for tape selection.
struct TapeCandidate {
  TapeId tape = kInvalidTape;
  /// The distinct slots a visit would read: bit s % 64 of word s / 64 is
  /// slot s (the form ScheduleCost::EstimateVisit scores). A bit is set
  /// only alongside a member, so a tape with no members has no bits set.
  std::vector<uint64_t> slot_bits;
  bool serves_oldest = false;  ///< can satisfy the oldest request
  /// The requests satisfiable here, in queue order.
  std::vector<CandidateMember> members;

  /// Pending requests satisfiable here.
  int64_t num_requests() const {
    return static_cast<int64_t>(members.size());
  }

  /// Drops the tape's work, keeping the buffers' capacity. Only a tape
  /// with members has bits to zero.
  void Clear() {
    if (!members.empty()) {
      std::fill(slot_bits.begin(), slot_bits.end(), 0);
      members.clear();
    }
    serves_oldest = false;
  }
};

class TapeCandidateSet;

/// Fills `set` with one candidate per tape from `requests`: every live
/// replica of every request joins its tape's `members` and counts toward
/// `num_requests()` (a block requested twice counts twice), and sets its
/// slot's bit in `slot_bits` (once, however often the block is requested).
/// Each tape's bitmap has one word per 64 slots of the jukebox's tapes;
/// only the tapes that had work in the previous build are zeroed. With
/// `envelope` non-null only replicas whose block end is within the tape's
/// envelope count. `serves_oldest` marks the tapes holding a counted
/// replica of requests.front(). Once the set's buffers have grown, a call
/// allocates nothing.
void BuildTapeCandidates(const Jukebox& jukebox, const Catalog& catalog,
                         const std::vector<Request>& requests,
                         const std::vector<Position>* envelope,
                         TapeCandidateSet* set);

/// Removes from `queue` every member of `tape`'s candidate in `set` and
/// adds them to `sweep` as a single forward+reverse pass starting from
/// `start_head`: forward if the position is at or past it, else reverse.
/// Requests for the same block share one entry, in queue order (members
/// are added in queue order, so no sort is needed). `queue` must be the
/// queue `set` was built from, unchanged since, with the catalog unchanged
/// too; the extraction uses up the set. `sweep` must be empty on entry, and
/// its block size must divide the jukebox's.
void ExtractSweepForTape(TapeCandidateSet* set, TapeId tape,
                         Position start_head, std::vector<Request>* queue,
                         Sweep* sweep);

/// Reusable output of BuildTapeCandidates, plus the scratch both halves of
/// the walk use.
class TapeCandidateSet {
 public:
  /// One candidate per tape, indexed by TapeId.
  const std::vector<TapeCandidate>& tapes() const { return tapes_; }
  /// Callers may withdraw a tape's work (TapeCandidate::Clear) or re-mark
  /// serves_oldest between the build and the extraction.
  std::vector<TapeCandidate>& tapes() { return tapes_; }

 private:
  friend void BuildTapeCandidates(const Jukebox&, const Catalog&,
                                  const std::vector<Request>&,
                                  const std::vector<Position>*,
                                  TapeCandidateSet*);
  friend void ExtractSweepForTape(TapeCandidateSet*, TapeId, Position,
                                  std::vector<Request>*, Sweep*);

  std::vector<TapeCandidate> tapes_;
  int64_t block_mb_ = 0;
  /// What the last build walked, for ExtractSweepForTape's debug checks
  /// (queue_ is reset once an extraction uses the set up).
  const Catalog* catalog_ = nullptr;
  const std::vector<Request>* queue_ = nullptr;
  size_t queue_size_ = 0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_SWEEP_BUILDER_H_
