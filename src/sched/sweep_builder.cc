#include "sched/sweep_builder.h"

#include <vector>

#include "util/check.h"
#include "util/counting_sort.h"

namespace tapejuke {

void ExtractSweepForTape(const Catalog& catalog, TapeId tape,
                         Position start_head, int64_t block_size_mb,
                         const Position* envelope_limit,
                         std::deque<Request>* pending, Sweep* sweep) {
  TJ_CHECK(pending != nullptr);
  TJ_CHECK(sweep != nullptr);
  TJ_CHECK(sweep->empty()) << "sweep must be drained before rebuilding";

  // Partition the pending list into extracted (slot-tagged) and kept
  // requests, then group the extracted ones by position with one stable
  // counting sort on the slot (position == slot * block size): same result
  // as a position-keyed ordered map, in linear time. Stability keeps each
  // entry's requests in pending order.
  struct Tagged {
    int64_t slot = -1;
    Position position = -1;
    Request request;
  };
  std::vector<Tagged> extracted;
  extracted.reserve(pending->size());
  std::deque<Request> keep;
  for (const Request& request : *pending) {
    const Replica* replica = catalog.LiveReplicaOn(request.block, tape);
    const bool within =
        replica != nullptr &&
        (envelope_limit == nullptr ||
         replica->position + block_size_mb <= *envelope_limit);
    if (!within) {
      keep.push_back(request);
      continue;
    }
    extracted.push_back(Tagged{replica->slot, replica->position, request});
  }
  *pending = std::move(keep);
  std::vector<size_t> counts;
  std::vector<Tagged> buffer;
  StableCountingSort(
      &extracted, [](const Tagged& t) { return t.slot; }, &counts, &buffer);

  // One entry per distinct position (one block per position per tape).
  // Forward phase: ascending positions >= the start head; reverse phase:
  // descending positions below it.
  const auto build_entry = [&](size_t begin, size_t end) {
    ServiceEntry entry;
    entry.position = extracted[begin].position;
    entry.block = extracted[begin].request.block;
    entry.requests.reserve(end - begin);
    for (size_t k = begin; k < end; ++k) {
      entry.requests.push_back(extracted[k].request);
    }
    return entry;
  };
  size_t reverse_end = 0;  // first index with position >= start_head
  for (size_t i = 0; i < extracted.size();) {
    size_t j = i + 1;
    while (j < extracted.size() &&
           extracted[j].position == extracted[i].position) {
      ++j;
    }
    if (extracted[i].position >= start_head) {
      sweep->AppendForward(build_entry(i, j));
    } else {
      reverse_end = j;
    }
    i = j;
  }
  for (size_t end = reverse_end; end > 0;) {
    size_t begin = end - 1;
    while (begin > 0 &&
           extracted[begin - 1].position == extracted[end - 1].position) {
      --begin;
    }
    sweep->AppendReverse(build_entry(begin, end));
    end = begin;
  }
}

}  // namespace tapejuke
