// A single tape: a position-indexed array of fixed-size block slots.
//
// Blocks are stored in consecutively numbered physical slots; slot s starts
// at position s * block_size_mb. A logical block appears at most once per
// tape (the paper's replication model allows at most one copy per tape),
// which one bit per block id enforces.

#ifndef TAPEJUKE_TAPE_TAPE_H_
#define TAPEJUKE_TAPE_TAPE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "tape/types.h"
#include "util/status.h"

namespace tapejuke {

/// One tape volume in a jukebox.
class Tape {
 public:
  /// Creates an empty tape with `capacity_mb / block_size_mb` slots.
  /// Requires positive capacity and block size with block_size <= capacity.
  Tape(TapeId id, int64_t capacity_mb, int64_t block_size_mb);

  TapeId id() const { return id_; }
  int64_t capacity_mb() const { return capacity_mb_; }
  int64_t block_size_mb() const { return block_size_mb_; }

  /// Number of block slots on this tape.
  int64_t num_slots() const { return static_cast<int64_t>(slots_.size()); }

  /// Number of occupied slots.
  int64_t num_blocks() const { return num_blocks_; }

  /// Places a copy of `block` in `slot`. Fails if the slot is occupied, the
  /// slot is out of range, or the block already has a copy on this tape.
  Status PlaceBlock(BlockId block, int64_t slot);

  /// Removes the block in `slot`, if any.
  void ClearSlot(int64_t slot);

  /// The block stored in `slot`, or kInvalidBlock if empty.
  BlockId BlockAtSlot(int64_t slot) const;

  /// The slot holding `block` on this tape, if present. Scans the slots
  /// when the block is here (repair is the only caller).
  std::optional<int64_t> SlotOf(BlockId block) const;

  /// Physical start position (MB) of `slot`.
  Position PositionOfSlot(int64_t slot) const {
    return slot * block_size_mb_;
  }

 private:
  TapeId id_;
  int64_t capacity_mb_;
  int64_t block_size_mb_;
  /// True if a copy of `block` (>= 0) is on this tape.
  bool Holds(BlockId block) const {
    const auto word = static_cast<size_t>(block / 64);
    return word < held_.size() && ((held_[word] >> (block % 64)) & 1) != 0;
  }

  std::vector<BlockId> slots_;
  /// One bit per block id, set while a copy of the block is on this tape;
  /// grown on demand to the largest id placed.
  std::vector<uint64_t> held_;
  int64_t num_blocks_ = 0;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_TAPE_TAPE_H_
