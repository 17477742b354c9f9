// Stable counting sort for lists keyed by a small integer range.
//
// The scheduler sorts lists of replicas by tape position, and a tape has
// only slots_per_tape() distinct positions. Bucketing by slot is linear in
// the list length plus the occupied slot range, and being stable it keeps
// equal-slot entries in their input order, so a list built in ascending
// secondary-key order comes out in (slot, secondary key) order.

#ifndef TAPEJUKE_UTIL_COUNTING_SORT_H_
#define TAPEJUKE_UTIL_COUNTING_SORT_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace tapejuke {

/// Lists this short are insertion-sorted instead: bucketing costs the
/// whole key range, which for a few entries spread over a tape is far more
/// than the handful of moves an insertion sort makes.
inline constexpr size_t kCountingSortMinItems = 32;

/// Stably sorts `items` by `key(item)` (an integer). Only the range between
/// the smallest and largest key is bucketed. `counts` and `buffer` are
/// caller-owned scratch: once they have grown to size, the sort allocates
/// nothing. T must be default-constructible and movable.
template <typename T, typename KeyFn>
void StableCountingSort(std::vector<T>* items, KeyFn key,
                        std::vector<size_t>* counts, std::vector<T>* buffer) {
  if (items->size() < kCountingSortMinItems) {
    // Stable: an item moves left only past strictly greater keys.
    for (size_t i = 1; i < items->size(); ++i) {
      T item = std::move((*items)[i]);
      const int64_t k = key(item);
      size_t j = i;
      for (; j > 0 && key((*items)[j - 1]) > k; --j) {
        (*items)[j] = std::move((*items)[j - 1]);
      }
      (*items)[j] = std::move(item);
    }
    return;
  }
  int64_t lo = key(items->front());
  int64_t hi = lo;
  for (const T& item : *items) {
    const int64_t k = key(item);
    lo = std::min(lo, k);
    hi = std::max(hi, k);
  }
  // counts[k - lo] becomes the first output index of bucket k.
  counts->assign(static_cast<size_t>(hi - lo) + 2, 0);
  for (const T& item : *items) {
    ++(*counts)[static_cast<size_t>(key(item) - lo) + 1];
  }
  for (size_t i = 1; i < counts->size(); ++i) {
    (*counts)[i] += (*counts)[i - 1];
  }
  buffer->resize(items->size());
  for (T& item : *items) {
    (*buffer)[(*counts)[static_cast<size_t>(key(item) - lo)]++] =
        std::move(item);
  }
  items->swap(*buffer);
}

}  // namespace tapejuke

#endif  // TAPEJUKE_UTIL_COUNTING_SORT_H_
