#include "sched/sweep_builder.h"

#include <limits>
#include <utility>

#include "util/check.h"

namespace tapejuke {

void BuildTapeCandidates(const Jukebox& jukebox, const Catalog& catalog,
                         const std::vector<Request>& requests,
                         const std::vector<Position>* envelope,
                         TapeCandidateSet* set) {
  TJ_CHECK(set != nullptr);
  const int32_t num_tapes = jukebox.num_tapes();
  const int64_t slots = jukebox.slots_per_tape();
  const int64_t block_mb = jukebox.config().block_size_mb;
  // One bit per slot; JukeboxConfig::Validate bounds the slot count.
  TJ_DCHECK(slots <= std::numeric_limits<int32_t>::max());
  const auto words = static_cast<size_t>((slots + 63) / 64);
  std::vector<TapeCandidate>& candidates = set->tapes_;
  candidates.resize(static_cast<size_t>(num_tapes));
  for (TapeId t = 0; t < num_tapes; ++t) {
    TapeCandidate& c = candidates[static_cast<size_t>(t)];
    c.tape = t;
    c.Clear();
    c.slot_bits.resize(words);
  }
  set->block_mb_ = block_mb;
  set->catalog_ = &catalog;
  set->queue_ = &requests;
  set->queue_size_ = requests.size();
  if (requests.empty()) return;
  TJ_DCHECK(requests.size() <= std::numeric_limits<uint32_t>::max());
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
      c.slot_bits[slot / 64] |= uint64_t{1} << (slot % 64);
    }
    ++index;
  }
}

void ExtractSweepForTape(TapeCandidateSet* set, TapeId tape,
                         Position start_head, std::vector<Request>* queue,
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

  // Members arrive in queue order, so adding each to its slot's run keeps
  // every entry's requests in queue order.
  const int64_t block_mb = set->block_mb_;
  for (const CandidateMember& m : members) {
    const Position position = m.slot * block_mb;
    sweep->Add(position >= start_head ? Sweep::Phase::kForward
                                      : Sweep::Phase::kReverse,
               position, (*queue)[m.index]);
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
