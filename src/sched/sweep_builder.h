// The pending walk of a major reschedule, in two halves.
//
// BuildTapeCandidates walks a request queue once against the catalog and
// records, per tape, what a visit could serve: the request count and the
// distinct positions (for tape selection), plus a member list of (queue
// index, replica slot) pairs. Once a tape is chosen, ExtractSweepForTape
// builds its sweep from that tape's member list alone and compacts the
// queue, so the catalog is walked once per reschedule. Used by the
// Scheduler subclasses.

#ifndef TAPEJUKE_SCHED_SWEEP_BUILDER_H_
#define TAPEJUKE_SCHED_SWEEP_BUILDER_H_

#include <cstdint>
#include <deque>
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
  std::vector<Position> positions;   ///< block positions (ascending, distinct)
  bool serves_oldest = false;        ///< can satisfy the oldest request
  /// The requests satisfiable here, in queue order.
  std::vector<CandidateMember> members;

  /// Pending requests satisfiable here.
  int64_t num_requests() const {
    return static_cast<int64_t>(members.size());
  }

  /// Drops the tape's work, keeping the buffers' capacity.
  void Clear() {
    positions.clear();
    members.clear();
    serves_oldest = false;
  }
};

class TapeCandidateSet;

/// Fills `set` with one candidate per tape from `requests`: every live
/// replica of every request joins its tape's `members` and counts toward
/// `num_requests()` (a block requested twice counts twice), and the
/// replica's position joins `positions` once. With `envelope` non-null only
/// replicas whose block end is within the tape's envelope count.
/// `serves_oldest` marks the tapes holding a counted replica of
/// requests.front(). Positions are collected by setting one bit per replica
/// slot and reading the bits back in slot order, which relies on position
/// == slot * block size. Once the set's buffers have grown, a call
/// allocates nothing.
void BuildTapeCandidates(const Jukebox& jukebox, const Catalog& catalog,
                         const std::deque<Request>& requests,
                         const std::vector<Position>* envelope,
                         TapeCandidateSet* set);

/// Removes from `queue` every member of `tape`'s candidate in `set` and
/// appends them to `sweep` as a single forward+reverse pass starting from
/// `start_head`. Requests for the same block share one entry, in queue
/// order. `queue` must be the queue `set` was built from, unchanged since,
/// with the catalog unchanged too; the extraction uses up the set. `sweep`
/// must be empty on entry.
void ExtractSweepForTape(TapeCandidateSet* set, TapeId tape,
                         Position start_head, std::deque<Request>* queue,
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
  /// True when every slot mark is zero, as BuildTapeCandidates leaves them.
  bool SlotMarksClear() const;

 private:
  friend void BuildTapeCandidates(const Jukebox&, const Catalog&,
                                  const std::deque<Request>&,
                                  const std::vector<Position>*,
                                  TapeCandidateSet*);
  friend void ExtractSweepForTape(TapeCandidateSet*, TapeId, Position,
                                  std::deque<Request>*, Sweep*);

  std::vector<TapeCandidate> tapes_;
  /// A bit per tape x slot, all zero between builds.
  std::vector<uint64_t> slot_marks_;
  /// Extraction scratch: the chosen tape's members in slot order.
  std::vector<CandidateMember> by_slot_;
  std::vector<CandidateMember> sort_buffer_;
  std::vector<size_t> sort_counts_;
  int64_t block_mb_ = 0;
  /// What the last build walked, for ExtractSweepForTape's debug checks
  /// (queue_ is reset once an extraction uses the set up).
  const Catalog* catalog_ = nullptr;
  const std::deque<Request>* queue_ = nullptr;
  size_t queue_size_ = 0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_SWEEP_BUILDER_H_
