#include "sched/sweep.h"

#include <algorithm>

#include "util/check.h"

namespace tapejuke {

namespace {

bool TestBit(const std::vector<uint64_t>& bits, int64_t slot) {
  const auto s = static_cast<size_t>(slot);
  return s / 64 < bits.size() && (bits[s / 64] >> (s % 64) & 1) != 0;
}

/// The lowest set bit at or above `from`; one must exist.
int64_t NextUp(const std::vector<uint64_t>& bits, int64_t from) {
  auto w = static_cast<size_t>(from) / 64;
  uint64_t word = bits[w] & (~uint64_t{0} << (from % 64));
  while (word == 0) word = bits[++w];
  return static_cast<int64_t>(w * 64) + std::countr_zero(word);
}

/// The highest set bit at or below `from`; one must exist.
int64_t NextDown(const std::vector<uint64_t>& bits, int64_t from) {
  auto w = static_cast<size_t>(from) / 64;
  uint64_t word = bits[w] & (~uint64_t{0} >> (63 - from % 64));
  while (word == 0) word = bits[--w];
  return static_cast<int64_t>(w * 64) + 63 - std::countl_zero(word);
}

}  // namespace

Sweep::Sweep(int64_t block_mb) : block_mb_(block_mb) {
  TJ_CHECK_GT(block_mb, 0);
}

void Sweep::Clear() {
  for (std::vector<uint64_t>& bits : bits_) {
    std::fill(bits.begin(), bits.end(), uint64_t{0});
  }
  count_[0] = count_[1] = 0;
  cursor_[0] = kForwardUnset;
  cursor_[1] = kReverseUnset;
  pool_.clear();
}

int64_t Sweep::SlotOf(Position position) const {
  TJ_CHECK(position >= 0 && position % block_mb_ == 0)
      << "position" << position << "is not a multiple of the block size"
      << block_mb_;
  return position / block_mb_;
}

int Sweep::ScheduledPhase(int64_t slot) const {
  if (TestBit(bits_[0], slot)) return 0;
  if (TestBit(bits_[1], slot)) return 1;
  return -1;
}

void Sweep::Reserve(int64_t slot) {
  const auto words = static_cast<size_t>(slot / 64 + 1);
  if (words <= bits_[0].size()) return;
  bits_[0].resize(words);
  bits_[1].resize(words);
  runs_.resize(words * 64);
}

void Sweep::Open(int p, int64_t slot, const Request& request) {
  Reserve(slot);
  const auto s = static_cast<size_t>(slot);
  bits_[p][s / 64] |= uint64_t{1} << (s % 64);
  ++count_[p];
  cursor_[p] = p == 0 ? std::min(cursor_[p], slot) : std::max(cursor_[p], slot);
  const auto node = static_cast<uint32_t>(pool_.size());
  pool_.push_back(Node{request, kNone});
  runs_[s] = Run{request.block, node, node};
}

void Sweep::Append(int64_t slot, const Request& request) {
  Run& run = runs_[static_cast<size_t>(slot)];
  TJ_CHECK_EQ(run.block, request.block)
      << "two blocks cannot share position" << slot * block_mb_;
  const auto node = static_cast<uint32_t>(pool_.size());
  pool_.push_back(Node{request, kNone});
  pool_[run.tail].next = node;
  run.tail = node;
}

ServiceEntry Sweep::Take(int p, int64_t slot, std::vector<Request>* out) {
  const auto s = static_cast<size_t>(slot);
  bits_[p][s / 64] &= ~(uint64_t{1} << (s % 64));
  if (--count_[p] == 0) cursor_[p] = p == 0 ? kForwardUnset : kReverseUnset;
  const Run& run = runs_[s];
  out->clear();
  for (uint32_t n = run.head; n != kNone; n = pool_[n].next) {
    out->push_back(pool_[n].request);
  }
  if (empty()) pool_.clear();
  return ServiceEntry{slot * block_mb_, run.block, *out};
}

void Sweep::Add(Phase phase, Position position, const Request& request) {
  const int64_t slot = SlotOf(position);
  const int p = phase == Phase::kForward ? 0 : 1;
  const int scheduled = ScheduledPhase(slot);
  TJ_CHECK(scheduled != 1 - p)
      << "position" << position << "is already scheduled in the other phase";
  if (scheduled == p) {
    Append(slot, request);
  } else {
    Open(p, slot, request);
  }
}

std::optional<ServiceEntry> Sweep::Pop() {
  if (empty()) return std::nullopt;
  const int p = count_[0] > 0 ? 0 : 1;
  const int64_t slot = p == 0 ? NextUp(bits_[0], cursor_[0])
                              : NextDown(bits_[1], cursor_[1]);
  cursor_[p] = slot;
  return Take(p, slot, &popped_);
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

bool Sweep::InsertRequest(const Request& request, Position position,
                          Position committed_head, bool allow_reverse) {
  const int64_t slot = SlotOf(position);
  // A read already scheduled at this position satisfies the request for
  // free; it reads this very block, since no two blocks share a position.
  if (ScheduledPhase(slot) >= 0) {
    Append(slot, request);
    return true;
  }
  if (!IsAhead(position, committed_head, allow_reverse)) return false;
  Open(phase() == Phase::kForward && position >= committed_head ? 0 : 1, slot,
       request);
  return true;
}

std::optional<ServiceEntry> Sweep::RemoveAt(Position position) {
  if (position < 0 || position % block_mb_ != 0) return std::nullopt;
  const int64_t slot = position / block_mb_;
  const int p = ScheduledPhase(slot);
  if (p < 0) return std::nullopt;
  return Take(p, slot, &removed_);
}

void Sweep::Drain(std::vector<Request>* out) {
  ForEach([out](const Request& request) { out->push_back(request); });
  Clear();
}

std::optional<Sweep::Read> Sweep::OuterEdge() const {
  if (empty()) return std::nullopt;
  // The reverse phase's top is its cursor's slot or below; the forward
  // phase's is found scanning down from the top word.
  int64_t slot = count_[1] > 0 ? NextDown(bits_[1], cursor_[1]) : -1;
  if (count_[0] > 0) {
    slot = std::max(slot, NextDown(bits_[0], static_cast<int64_t>(
                                                 bits_[0].size() * 64 - 1)));
  }
  return Read{slot * block_mb_, runs_[static_cast<size_t>(slot)].block};
}

std::vector<Sweep::OwnedEntry> Sweep::Entries() const {
  std::vector<OwnedEntry> entries;
  entries.reserve(size());
  ForEachSlot([&](int64_t slot) {
    const Run& run = runs_[static_cast<size_t>(slot)];
    OwnedEntry& entry = entries.emplace_back();
    entry.position = slot * block_mb_;
    entry.block = run.block;
    for (uint32_t n = run.head; n != kNone; n = pool_[n].next) {
      entry.requests.push_back(pool_[n].request);
    }
  });
  return entries;
}

std::vector<Position> Sweep::Positions() const {
  std::vector<Position> positions;
  positions.reserve(size());
  ForEachSlot(
      [&](int64_t slot) { positions.push_back(slot * block_mb_); });
  return positions;
}

}  // namespace tapejuke
