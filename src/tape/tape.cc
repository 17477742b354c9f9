#include "tape/tape.h"

#include <algorithm>
#include <string>

#include "util/check.h"

namespace tapejuke {

Tape::Tape(TapeId id, int64_t capacity_mb, int64_t block_size_mb)
    : id_(id), capacity_mb_(capacity_mb), block_size_mb_(block_size_mb) {
  TJ_CHECK_GT(capacity_mb, 0);
  TJ_CHECK_GT(block_size_mb, 0);
  TJ_CHECK_LE(block_size_mb, capacity_mb);
  slots_.assign(static_cast<size_t>(capacity_mb / block_size_mb),
                kInvalidBlock);
}

Status Tape::PlaceBlock(BlockId block, int64_t slot) {
  if (block < 0) {
    return Status::InvalidArgument("block id must be non-negative");
  }
  if (slot < 0 || slot >= num_slots()) {
    return Status::OutOfRange("slot " + std::to_string(slot) +
                              " out of range on tape " + std::to_string(id_));
  }
  if (slots_[static_cast<size_t>(slot)] != kInvalidBlock) {
    return Status::CapacityExceeded("slot " + std::to_string(slot) +
                                    " already occupied on tape " +
                                    std::to_string(id_));
  }
  if (Holds(block)) {
    return Status::InvalidArgument(
        "block " + std::to_string(block) +
        " already has a copy on tape " + std::to_string(id_) +
        " (at most one copy per tape)");
  }
  slots_[static_cast<size_t>(slot)] = block;
  const auto word = static_cast<size_t>(block / 64);
  if (word >= held_.size()) held_.resize(word + 1, 0);
  held_[word] |= uint64_t{1} << (block % 64);
  ++num_blocks_;
  return Status::Ok();
}

void Tape::ClearSlot(int64_t slot) {
  TJ_CHECK(slot >= 0 && slot < num_slots());
  const BlockId block = slots_[static_cast<size_t>(slot)];
  if (block != kInvalidBlock) {
    held_[static_cast<size_t>(block / 64)] &= ~(uint64_t{1} << (block % 64));
    --num_blocks_;
    slots_[static_cast<size_t>(slot)] = kInvalidBlock;
  }
}

BlockId Tape::BlockAtSlot(int64_t slot) const {
  TJ_CHECK(slot >= 0 && slot < num_slots());
  return slots_[static_cast<size_t>(slot)];
}

std::optional<int64_t> Tape::SlotOf(BlockId block) const {
  if (block < 0 || !Holds(block)) return std::nullopt;
  const auto it = std::find(slots_.begin(), slots_.end(), block);
  TJ_DCHECK(it != slots_.end());
  return it - slots_.begin();
}

int64_t Tape::SlotOfPosition(Position position) const {
  TJ_CHECK_EQ(position % block_size_mb_, 0);
  return position / block_size_mb_;
}

}  // namespace tapejuke
