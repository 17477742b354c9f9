// Extension-list entries of the envelope-extension kernel (paper §3.2
// steps 3-4) and the two ways of putting a list in scan order.
//
// A tape's extension list holds one entry per live replica of a
// still-unscheduled request, scanned outward from the envelope edge in
// (position, uid) order. The reference kernel and the per-round oracle sort
// with a comparator; the incremental kernel buckets by slot, which gives
// the same order in linear time because position == slot * block size on
// every tape and the lists are built in ascending uid order.

#ifndef TAPEJUKE_SCHED_EXTENSION_LIST_H_
#define TAPEJUKE_SCHED_EXTENSION_LIST_H_

#include <algorithm>
#include <vector>

#include "layout/catalog.h"
#include "tape/types.h"
#include "util/counting_sort.h"

namespace tapejuke {

/// One extension-list entry: a replica of a still-unscheduled request.
/// `uid` indexes the stable initially-unscheduled vector; `replica` points
/// into the catalog (so step 4 assigns the real catalog entry instead of
/// fabricating one from the position).
struct Ext {
  Position position = -1;
  size_t uid = 0;
  const Replica* replica = nullptr;
};

/// Comparator sort into (position, uid) order. The oracles use this form.
inline void SortExtListByPosition(std::vector<Ext>* list) {
  std::sort(list->begin(), list->end(), [](const Ext& a, const Ext& b) {
    return a.position < b.position ||
           (a.position == b.position && a.uid < b.uid);
  });
}

/// The same order by a stable counting sort on `replica->slot`. Requires
/// `list` in ascending uid order. `counts` and `buffer` are reusable
/// scratch.
inline void BucketExtListBySlot(std::vector<Ext>* list,
                                std::vector<size_t>* counts,
                                std::vector<Ext>* buffer) {
  StableCountingSort(
      list, [](const Ext& e) { return e.replica->slot; }, counts, buffer);
}

}  // namespace tapejuke

#endif  // TAPEJUKE_SCHED_EXTENSION_LIST_H_
