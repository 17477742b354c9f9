// Catalog: the mapping from logical blocks to their physical replicas.
//
// Logical blocks are numbered [0, L). Blocks [0, H) are hot, [H, L) are
// cold (the paper's hot/cold skew model). Each block has one or more
// replicas, each on a distinct tape (at most one copy per tape).
//
// Replicas are stored in one contiguous array indexed by a per-block
// offset table (CSR layout), so the scheduler hot loops that walk
// ReplicasOf() per pending request touch a single cache-friendly span
// instead of chasing a heap-allocated vector per block.

#ifndef TAPEJUKE_LAYOUT_CATALOG_H_
#define TAPEJUKE_LAYOUT_CATALOG_H_

#include <cstdint>
#include <vector>

#include "tape/types.h"
#include "util/check.h"

namespace tapejuke {

/// One physical copy of a logical block.
struct Replica {
  TapeId tape = kInvalidTape;
  int64_t slot = -1;
  Position position = -1;  ///< start position on the tape, MB

  friend bool operator==(const Replica&, const Replica&) = default;
};

/// Read-only view of one block's replicas inside the catalog's flat
/// storage. Iterable like a const std::vector<Replica>. Invalidated by
/// Catalog::AddReplica.
class ReplicaSpan {
 public:
  ReplicaSpan(const Replica* data, size_t size) : data_(data), size_(size) {}

  const Replica* begin() const { return data_; }
  const Replica* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const Replica& front() const {
    TJ_DCHECK(size_ > 0);
    return data_[0];
  }
  const Replica& operator[](size_t i) const {
    TJ_DCHECK(i < size_);
    return data_[i];
  }

 private:
  const Replica* data_;
  size_t size_;
};

/// Replica directory produced by LayoutBuilder.
class Catalog {
 public:
  /// CSR form: block b's copies are `flat[offsets[b], offsets[b+1])`, so
  /// `offsets` has one entry per block plus one, starts at 0 and ends at
  /// `flat.size()`. Blocks [0, num_hot) are hot. Every block needs at least
  /// one replica, and one block's replicas must be on distinct tapes.
  Catalog(std::vector<Replica> flat, std::vector<size_t> offsets,
          int64_t num_hot);

  /// `replicas[b]` lists the copies of logical block b; flattened into the
  /// CSR form above.
  Catalog(const std::vector<std::vector<Replica>>& replicas, int64_t num_hot);

  /// Number of logical blocks L.
  int64_t num_blocks() const {
    return static_cast<int64_t>(offsets_.size()) - 1;
  }

  /// Number of hot logical blocks H (ids [0, H)).
  int64_t num_hot_blocks() const { return num_hot_; }

  /// Number of cold logical blocks L - H.
  int64_t num_cold_blocks() const { return num_blocks() - num_hot_; }

  /// True if `block` is hot.
  bool IsHot(BlockId block) const {
    TJ_DCHECK(block >= 0 && block < num_blocks());
    return block < num_hot_;
  }

  /// All replicas of `block` (non-empty, tapes pairwise distinct). The
  /// span (and the Replica pointers inside it) stays valid until the next
  /// AddReplica call.
  ReplicaSpan ReplicasOf(BlockId block) const {
    TJ_DCHECK(block >= 0 && block < num_blocks());
    const size_t begin = offsets_[static_cast<size_t>(block)];
    const size_t end = offsets_[static_cast<size_t>(block) + 1];
    return ReplicaSpan(flat_.data() + begin, end - begin);
  }

  /// Total number of physical copies across all blocks.
  int64_t TotalCopies() const { return static_cast<int64_t>(flat_.size()); }

  /// The replica of `block` on `tape`, or nullptr if none.
  const Replica* ReplicaOn(BlockId block, TapeId tape) const;

  /// Like ReplicaOn, but returns nullptr when the copy exists and has been
  /// masked dead by a permanent media error.
  const Replica* LiveReplicaOn(BlockId block, TapeId tape) const;

  /// True unless `r` was masked dead by MarkReplicaDead/MarkTapeDead. `r`
  /// must reference an element of this catalog's storage (any replica
  /// obtained from ReplicasOf/ReplicaOn qualifies).
  bool IsAlive(const Replica& r) const {
    if (dead_count_ == 0) return true;  // fault-free fast path
    const std::ptrdiff_t idx = &r - flat_.data();
    TJ_DCHECK(idx >= 0 && idx < static_cast<std::ptrdiff_t>(flat_.size()));
    return dead_[static_cast<size_t>(idx)] == 0;
  }

  /// True if `block` still has at least one live replica. O(1): answered
  /// from the per-block live-count cache once any replica has died.
  bool HasLiveReplica(BlockId block) const {
    if (dead_count_ == 0) return true;  // the ctor guarantees >= 1 replica
    return live_count_[static_cast<size_t>(block)] > 0;
  }

  /// Number of live replicas of `block`. O(1) via the live-count cache.
  int64_t LiveReplicaCount(BlockId block) const {
    const ReplicaSpan span = ReplicasOf(block);
    if (dead_count_ == 0) return static_cast<int64_t>(span.size());
    return live_count_[static_cast<size_t>(block)];
  }

  /// True if any block anywhere still has a live replica (cheap: total
  /// copies vs. dead count).
  bool HasAnyLive() const {
    return dead_count_ < static_cast<int64_t>(flat_.size());
  }

  /// Total replicas currently masked dead.
  int64_t dead_replicas() const { return dead_count_; }

  /// Masks the copy of `block` on `tape` dead (a permanent media error on
  /// that region). Returns true if the replica existed and was newly
  /// masked; false if absent or already dead.
  bool MarkReplicaDead(BlockId block, TapeId tape);

  /// Masks every replica on `tape` dead (the whole tape is lost). Returns
  /// the number of replicas newly masked. When `newly_masked` is non-null,
  /// the block of each newly masked replica is appended to it (so a repair
  /// manager can enqueue re-replication work per lost copy).
  int64_t MarkTapeDead(TapeId tape, std::vector<BlockId>* newly_masked);
  int64_t MarkTapeDead(TapeId tape) { return MarkTapeDead(tape, nullptr); }

  /// Registers an additional copy of `block` (the §4.8 gradual-fill
  /// lifecycle writes replicas into spare capacity while the system runs).
  /// The tape must not already hold a copy of the block. Invalidates all
  /// outstanding ReplicaSpans.
  void AddReplica(BlockId block, const Replica& replica);

  /// Resurrects the dead copy of `block` on `old_tape` by rewriting its
  /// CSR entry in place to `replacement` (a fresh physical copy written
  /// during repair) and clearing the dead bit. `replacement.tape` must not
  /// already hold a copy of the block. TotalCopies is unchanged, so no
  /// spans are invalidated.
  void RepairReplica(BlockId block, TapeId old_tape,
                     const Replica& replacement);

 private:
  /// Allocates the dead mask and the per-block live-count cache (lazily,
  /// so fault-free runs never touch either).
  void EnsureDeadMask();
  /// CSR storage: block b's replicas live at flat_[offsets_[b],
  /// offsets_[b+1]); offsets_ has num_blocks() + 1 entries.
  std::vector<Replica> flat_;
  std::vector<size_t> offsets_;
  int64_t num_hot_;
  /// Dead-replica mask, parallel to flat_ (1 = masked dead). Allocated
  /// lazily on the first MarkReplicaDead/MarkTapeDead so fault-free runs
  /// never touch it.
  std::vector<uint8_t> dead_;
  int64_t dead_count_ = 0;
  /// Per-block live-replica counts, allocated with dead_ and kept in sync
  /// by every mask/resurrect/add, so HasLiveReplica/LiveReplicaCount are
  /// O(1) instead of scanning the block's span.
  std::vector<int32_t> live_count_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_LAYOUT_CATALOG_H_
