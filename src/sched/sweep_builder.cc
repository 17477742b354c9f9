#include "sched/sweep_builder.h"

#include <algorithm>
#include <bit>
#include <limits>
#include <utility>

#include "util/check.h"
#include "util/counting_sort.h"

namespace tapejuke {

void BuildTapeCandidates(const Jukebox& jukebox, const Catalog& catalog,
                         const std::deque<Request>& requests,
                         const std::vector<Position>* envelope,
                         TapeCandidateSet* set) {
  TJ_CHECK(set != nullptr);
  const int32_t num_tapes = jukebox.num_tapes();
  const int64_t slots = jukebox.slots_per_tape();
  const int64_t block_mb = jukebox.config().block_size_mb;
  std::vector<TapeCandidate>& candidates = set->tapes_;
  candidates.resize(static_cast<size_t>(num_tapes));
  for (TapeId t = 0; t < num_tapes; ++t) {
    candidates[static_cast<size_t>(t)].tape = t;
    candidates[static_cast<size_t>(t)].Clear();
  }
  set->block_mb_ = block_mb;
  set->catalog_ = &catalog;
  set->queue_ = &requests;
  set->queue_size_ = requests.size();
  if (requests.empty()) return;
  TJ_DCHECK(requests.size() <= std::numeric_limits<uint32_t>::max());
  TJ_DCHECK(slots <= std::numeric_limits<int32_t>::max());
  // One bit per (tape, slot); a tape's bits are read back a word at a time,
  // so the read costs slots / 64 words per tape plus one step per position.
  const auto words = static_cast<size_t>((slots + 63) / 64);
  std::vector<uint64_t>& marks = set->slot_marks_;
  marks.resize(static_cast<size_t>(num_tapes) * words);
  const RequestId oldest = requests.front().id;
  uint32_t index = 0;
  for (const Request& request : requests) {
    for (const Replica& replica : catalog.ReplicasOf(request.block)) {
      if (!catalog.IsAlive(replica)) continue;
      const auto t = static_cast<size_t>(replica.tape);
      if (envelope != nullptr &&
          replica.position + block_mb > (*envelope)[t]) {
        continue;
      }
      TJ_DCHECK(replica.slot >= 0 && replica.slot < slots);
      TapeCandidate& c = candidates[t];
      if (request.id == oldest) c.serves_oldest = true;
      c.members.push_back(
          CandidateMember{index, static_cast<int32_t>(replica.slot)});
      const auto slot = static_cast<size_t>(replica.slot);
      marks[t * words + slot / 64] |= uint64_t{1} << (slot % 64);
    }
    ++index;
  }
  // Read the marks back in slot order (ascending positions, each once),
  // clearing them for the next call.
  for (size_t t = 0; t < candidates.size(); ++t) {
    TapeCandidate& c = candidates[t];
    if (c.members.empty()) continue;
    for (size_t w = 0; w < words; ++w) {
      uint64_t& bits = marks[t * words + w];
      for (; bits != 0; bits &= bits - 1) {
        const int64_t slot =
            static_cast<int64_t>(w * 64) + std::countr_zero(bits);
        c.positions.push_back(slot * block_mb);
      }
    }
  }
}

bool TapeCandidateSet::SlotMarksClear() const {
  return std::all_of(slot_marks_.begin(), slot_marks_.end(),
                     [](uint64_t word) { return word == 0; });
}

void ExtractSweepForTape(TapeCandidateSet* set, TapeId tape,
                         Position start_head, std::deque<Request>* queue,
                         Sweep* sweep) {
  TJ_CHECK(set != nullptr);
  TJ_CHECK(queue != nullptr);
  TJ_CHECK(sweep != nullptr);
  TJ_CHECK(sweep->empty()) << "sweep must be drained before rebuilding";
  TJ_CHECK(tape >= 0 && static_cast<size_t>(tape) < set->tapes_.size());
  // The member indices are only valid against the queue as walked.
  TJ_DCHECK(set->queue_ == queue && queue->size() == set->queue_size_);
  const std::vector<CandidateMember>& members =
      set->tapes_[static_cast<size_t>(tape)].members;
#ifndef NDEBUG
  for (const CandidateMember& m : members) {
    const Replica* replica =
        set->catalog_->LiveReplicaOn((*queue)[m.index].block, tape);
    TJ_DCHECK(replica != nullptr && replica->slot == m.slot);
  }
#endif
  set->queue_ = nullptr;
  if (members.empty()) return;

  // Group the members by position with one stable counting sort on the
  // slot (position == slot * block size): same result as a position-keyed
  // ordered map, in linear time. Stability keeps each entry's requests in
  // queue order.
  std::vector<CandidateMember>& order = set->by_slot_;
  order.assign(members.begin(), members.end());
  StableCountingSort(
      &order, [](const CandidateMember& m) { return int64_t{m.slot}; },
      &set->sort_counts_, &set->sort_buffer_);

  // One entry per distinct position (one block per position per tape).
  // Forward phase: ascending positions >= the start head; reverse phase:
  // descending positions below it.
  const int64_t block_mb = set->block_mb_;
  const auto position = [&](size_t k) { return order[k].slot * block_mb; };
  const auto build_entry = [&](size_t begin, size_t end) {
    ServiceEntry entry;
    entry.position = position(begin);
    entry.block = (*queue)[order[begin].index].block;
    entry.requests.reserve(end - begin);
    for (size_t k = begin; k < end; ++k) {
      entry.requests.push_back((*queue)[order[k].index]);
    }
    return entry;
  };
  size_t reverse_end = 0;  // first index with position >= start_head
  for (size_t i = 0; i < order.size();) {
    size_t j = i + 1;
    while (j < order.size() && order[j].slot == order[i].slot) ++j;
    if (position(i) >= start_head) {
      sweep->AppendForward(build_entry(i, j));
    } else {
      reverse_end = j;
    }
    i = j;
  }
  for (size_t end = reverse_end; end > 0;) {
    size_t begin = end - 1;
    while (begin > 0 && order[begin - 1].slot == order[end - 1].slot) {
      --begin;
    }
    sweep->AppendReverse(build_entry(begin, end));
    end = begin;
  }

  // Compact the queue in place: the members' indices ascend, so one pass
  // from the first of them drops every extracted request.
  size_t out = members.front().index;
  size_t next = 0;
  for (size_t i = out; i < queue->size(); ++i) {
    if (next < members.size() && members[next].index == i) {
      ++next;
      continue;
    }
    (*queue)[out++] = std::move((*queue)[i]);
  }
  queue->resize(out);
}

}  // namespace tapejuke
