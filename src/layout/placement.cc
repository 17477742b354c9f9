#include "layout/placement.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/check.h"

namespace tapejuke {

namespace {

/// Number of hot logical blocks for a dataset of L blocks.
int64_t HotCount(int64_t logical_blocks, double hot_fraction) {
  return std::llround(hot_fraction * static_cast<double>(logical_blocks));
}

/// Vertical layout: number of dedicated hot tapes for `hot` hot blocks
/// (the paper studied exactly one; more than a tapeful generalizes to the
/// minimal prefix of tapes — see §4.3's untested "excessive switching"
/// suspicion, probed by the layout tests and abl_vertical bench).
int32_t VerticalHotTapes(int64_t hot, int64_t slots_per_tape) {
  if (hot == 0) return 0;
  return static_cast<int32_t>((hot + slots_per_tape - 1) / slots_per_tape);
}

/// The tape holding copy `j` (0 = original) of hot block `h`.
TapeId HotCopyTape(const LayoutSpec& spec, int32_t num_tapes,
                   int64_t slots_per_tape, int64_t hot, int64_t h,
                   int32_t j) {
  if (spec.layout == HotLayout::kHorizontal) {
    return static_cast<TapeId>((h + j) % num_tapes);
  }
  // Vertical: originals packed onto the leading hot tapes; replicas
  // round-robin over the remaining tapes.
  const int32_t hot_tapes = VerticalHotTapes(hot, slots_per_tape);
  if (j == 0) return static_cast<TapeId>(h / slots_per_tape);
  const int64_t others = num_tapes - hot_tapes;
  TJ_CHECK_GT(others, 0);
  return static_cast<TapeId>(
      hot_tapes + (h * spec.num_replicas + (j - 1)) % others);
}

/// Number of hot copies on tape `t` for a dataset of `hot` hot blocks, the
/// count HotCopyTape's per-copy placement puts there, computed in O(1).
int64_t HotCopiesOnTape(const LayoutSpec& spec, int32_t num_tapes,
                        int64_t slots_per_tape, int64_t hot, TapeId t) {
  const int64_t nr = spec.num_replicas;
  if (spec.layout == HotLayout::kHorizontal) {
    // Copy j of block h sits on (h + j) mod T. Over h in [0, hot) each copy
    // index j covers every tape hot / T times, plus the rem = hot mod T
    // tapes j, j+1, ..., j+rem-1 (mod T) once more. Tape t is among those
    // for each j whose (t - j) mod T is below rem; with NR + 1 <= T those
    // values are the circular run [t - NR, t], distinct.
    TJ_CHECK_LT(nr, num_tapes) << "horizontal layout needs NR + 1 <= tapes";
    const int64_t rem = hot % num_tapes;
    const int64_t lo = t - nr;
    int64_t extra = 0;
    if (lo >= 0) {
      extra = std::max<int64_t>(0, std::min<int64_t>(t, rem - 1) - lo + 1);
    } else {  // the run wraps: [0, t] and [T + lo, T)
      extra = std::min<int64_t>(t + 1, rem) +
              std::max<int64_t>(0, rem - (num_tapes + lo));
    }
    return (nr + 1) * (hot / num_tapes) + extra;
  }
  // Vertical: originals fill the leading hot tapes in order; replica
  // k = h * NR + j - 1 (k runs over [0, hot * NR) once each) goes to the
  // (k mod others)-th of the remaining tapes.
  const int32_t hot_tapes = VerticalHotTapes(hot, slots_per_tape);
  if (t < hot_tapes) {
    return std::min(slots_per_tape, hot - t * slots_per_tape);
  }
  const int64_t replicas = hot * nr;
  const int64_t others = num_tapes - hot_tapes;
  return replicas / others + (t - hot_tapes < replicas % others ? 1 : 0);
}

/// True if a dataset of `logical` blocks fits the layout. O(tapes).
bool Fits(int32_t num_tapes, int64_t slots, const LayoutSpec& spec,
          int64_t logical) {
  const int64_t hot = HotCount(logical, spec.hot_fraction);
  const int64_t cold = logical - hot;
  if (hot < 0 || cold < 0) return false;
  int32_t hot_tapes = 0;
  if (spec.layout == HotLayout::kVertical) {
    hot_tapes = VerticalHotTapes(hot, slots);
    // Replicas and cold data need the non-hot tapes; each replicated
    // block needs NR distinct non-hot tapes.
    if (hot_tapes >= num_tapes && cold > 0) return false;
    if (spec.num_replicas > num_tapes - hot_tapes) return false;
  }
  int64_t cold_capacity = 0;
  for (TapeId t = 0; t < num_tapes; ++t) {
    const int64_t used = HotCopiesOnTape(spec, num_tapes, slots, hot, t);
    if (used > slots) return false;
    // Vertical dedicates the hot tapes; cold lives elsewhere.
    if (spec.layout == HotLayout::kVertical && t < hot_tapes) continue;
    cold_capacity += slots - used;
  }
  return cold <= cold_capacity;
}

/// One tape's regions during Build: the hot region is slots
/// [hot_start, hot_start + hot_count); cold data fills the other slots in
/// ascending order.
struct TapeRegions {
  int64_t hot_start = 0;
  int64_t hot_count = 0;
  int64_t hot_placed = 0;
  int64_t cold_placed = 0;

  /// The i-th slot outside the hot region.
  int64_t FreeSlot(int64_t i) const {
    return i < hot_start ? i : i + hot_count;
  }
};

}  // namespace

std::vector<Field> LayoutSpec::Fields() {
  return {
      {"hot_fraction", &hot_fraction, Closed(0, 1),
       {"ph", "fraction of logical blocks that are hot"}},
      {"num_replicas", &num_replicas, AtLeast(0),
       {"replicas", "extra copies of each hot block"}},
      {"start_position", &start_position, Closed(0, 1),
       {"sp", "hot-region start position in [0,1] (0.5 centers it)"}},
      {"layout", Enum(&layout, kHotLayoutNames), {},
       {"layout", "horizontal or vertical"}},
      {"placement", Fixed("start-position")},
      {"logical_blocks_override", &logical_blocks_override, AtLeast(0)},
      {"pack_cold", &pack_cold},
  };
}

Status LayoutSpec::Validate(const Jukebox& jukebox) const {
  return Validate(jukebox.num_tapes());
}

Status LayoutSpec::Validate(int32_t num_tapes) const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
  if (layout == HotLayout::kHorizontal && num_replicas + 1 > num_tapes) {
    return Status::InvalidArgument(
        "horizontal layout needs num_replicas + 1 <= num_tapes (one copy "
        "per tape)");
  }
  if (layout == HotLayout::kVertical) {
    if (num_tapes < 2 && hot_fraction > 0 && hot_fraction < 1) {
      return Status::InvalidArgument(
          "vertical layout needs at least two tapes");
    }
    if (num_replicas > num_tapes - 1) {
      return Status::InvalidArgument(
          "vertical layout needs num_replicas <= num_tapes - 1");
    }
  }
  if (num_replicas > 0 && hot_fraction == 0.0) {
    return Status::InvalidArgument(
        "replication requested but hot_fraction is zero");
  }
  return Status::Ok();
}

int64_t LayoutBuilder::MaxLogicalBlocks(const Jukebox& jukebox,
                                        const LayoutSpec& spec) {
  const int32_t num_tapes = jukebox.num_tapes();
  const int64_t slots = jukebox.slots_per_tape();
  int64_t lo = 0;
  int64_t hi = jukebox.total_slots();
  // Largest L with Fits(L). Fits is monotone in L for these layouts (adding
  // blocks only adds copies), so binary search applies.
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo + 1) / 2;
    if (Fits(num_tapes, slots, spec, mid)) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  return lo;
}

StatusOr<Catalog> LayoutBuilder::Build(Jukebox* jukebox,
                                       const LayoutSpec& spec) {
  TJ_CHECK(jukebox != nullptr);
  TJ_RETURN_IF_ERROR(spec.Validate(*jukebox));
  const int32_t num_tapes = jukebox->num_tapes();
  const int64_t slots = jukebox->slots_per_tape();
  for (TapeId t = 0; t < num_tapes; ++t) {
    if (jukebox->tape(t).num_blocks() != 0) {
      return Status::FailedPrecondition(
          "jukebox tapes must be empty before Build");
    }
  }

  int64_t logical = spec.logical_blocks_override;
  if (logical == 0) {
    logical = MaxLogicalBlocks(*jukebox, spec);
    if (logical == 0) {
      return Status::CapacityExceeded("no dataset fits this layout");
    }
  } else if (!Fits(num_tapes, slots, spec, logical)) {
    return Status::CapacityExceeded(
        "requested dataset of " + std::to_string(logical) +
        " blocks does not fit the layout");
  }
  const int64_t hot = HotCount(logical, spec.hot_fraction);
  const int64_t copies = int64_t{spec.num_replicas} + 1;

  // The catalog's CSR arrays, written in place: a hot block has NR + 1
  // copies, a cold block one.
  std::vector<size_t> offsets(static_cast<size_t>(logical) + 1);
  for (int64_t b = 0; b <= logical; ++b) {
    offsets[static_cast<size_t>(b)] =
        static_cast<size_t>(b <= hot ? b * copies : hot * copies + b - hot);
  }
  std::vector<Replica> flat(offsets.back());

  std::vector<TapeRegions> regions(static_cast<size_t>(num_tapes));
  for (TapeId t = 0; t < num_tapes; ++t) {
    TapeRegions& region = regions[static_cast<size_t>(t)];
    region.hot_count = HotCopiesOnTape(spec, num_tapes, slots, hot, t);
    TJ_CHECK_LE(region.hot_count, slots);
    region.hot_start = static_cast<int64_t>(
        std::llround(spec.start_position *
                     static_cast<double>(slots - region.hot_count)));
  }

  const auto place = [&](BlockId block, TapeId t, int64_t slot) {
    Tape& tape = jukebox->tape(t);
    const Status placed = tape.PlaceBlock(block, slot);
    TJ_CHECK(placed.ok()) << placed.ToString();
    return Replica{t, slot, tape.PositionOfSlot(slot)};
  };

  // Hot copies. Each tape's hot region takes its blocks in ascending id
  // order; each block's span is sorted by tape.
  for (int64_t h = 0; h < hot; ++h) {
    Replica* span = flat.data() + offsets[static_cast<size_t>(h)];
    for (int32_t j = 0; j <= spec.num_replicas; ++j) {
      const TapeId t = HotCopyTape(spec, num_tapes, slots, hot, h, j);
      TapeRegions& region = regions[static_cast<size_t>(t)];
      span[j] = place(h, t, region.hot_start + region.hot_placed++);
    }
    std::sort(span, span + copies, [](const Replica& a, const Replica& b) {
      return a.tape < b.tape;
    });
  }
  // The arithmetic counts sized each hot region; the per-copy placement
  // must have filled each exactly.
  for (const TapeRegions& region : regions) {
    TJ_CHECK_EQ(region.hot_placed, region.hot_count);
  }

  // Place cold blocks. Round-robin over eligible tapes (spread), or packed
  // tape-by-tape (§4.8 spare-capacity variant). Vertical skips the
  // dedicated hot tapes.
  const TapeId first_eligible =
      spec.layout == HotLayout::kVertical ? VerticalHotTapes(hot, slots) : 0;
  const int64_t num_eligible = num_tapes - first_eligible;
  int64_t cursor = 0;
  for (BlockId c = hot; c < logical; ++c) {
    // Find the next eligible tape with a free slot.
    bool placed_block = false;
    for (int64_t tries = 0; tries < num_eligible; ++tries) {
      const auto t =
          static_cast<TapeId>(first_eligible + cursor % num_eligible);
      TapeRegions& region = regions[static_cast<size_t>(t)];
      if (region.cold_placed < slots - region.hot_count) {
        flat[offsets[static_cast<size_t>(c)]] =
            place(c, t, region.FreeSlot(region.cold_placed++));
        placed_block = true;
        // Spread mode advances to the next tape per block; packed mode
        // stays on the current tape until it fills.
        if (!spec.pack_cold) ++cursor;
        break;
      }
      ++cursor;
    }
    if (!placed_block) {
      return Status::Internal("cold placement overflow despite Fits() check");
    }
  }

  return Catalog(std::move(flat), std::move(offsets), hot);
}

LayoutStats LayoutBuilder::ComputeStats(const Jukebox& jukebox,
                                        const Catalog& catalog) {
  LayoutStats stats;
  stats.logical_blocks = catalog.num_blocks();
  stats.hot_blocks = catalog.num_hot_blocks();
  stats.cold_blocks = catalog.num_cold_blocks();
  stats.total_copies = catalog.TotalCopies();
  stats.total_slots = jukebox.total_slots();
  int64_t used = 0;
  for (TapeId t = 0; t < jukebox.num_tapes(); ++t) {
    used += jukebox.tape(t).num_blocks();
  }
  stats.used_slots = used;
  stats.measured_expansion =
      stats.logical_blocks > 0
          ? static_cast<double>(stats.total_copies) /
                static_cast<double>(stats.logical_blocks)
          : 1.0;
  return stats;
}

}  // namespace tapejuke
