#include "sched/envelope_scheduler.h"

#include <algorithm>
#include <utility>

#include "sched/extension_list.h"
#include "util/check.h"

namespace tapejuke {

namespace {

/// Rank of `tape` scanning the jukebox circularly from `origin` (origin
/// itself has rank 0).
int32_t ScanRankFrom(TapeId tape, TapeId origin, int32_t num_tapes) {
  if (origin < 0) origin = 0;
  origin = origin % num_tapes;
  return (tape - origin + num_tapes) % num_tapes;
}

/// A tape's best extension prefix: its incremental bandwidth and length.
struct TapeScore {
  double bw = -1.0;
  size_t len = 0;
};

/// Step 3 for one tape: walks the extension list once, accumulating the
/// outbound locate+read chain, and returns the prefix with the highest
/// incremental bandwidth. Near-equal bandwidths (see NearlyEqual) keep the
/// shorter prefix, so the result is stable against last-ulp noise.
TapeScore ScorePrefixes(const TimingModel& model, const std::vector<Ext>& list,
                        Position edge, double surcharge, int64_t block_mb) {
  TapeScore best;
  Position cursor = edge;
  double outbound = 0.0;
  int64_t distinct = 0;
  Position prev = -1;
  for (size_t k = 0; k < list.size(); ++k) {
    if (list[k].position != prev) {
      outbound += model.LocateAndReadTime(cursor, list[k].position, block_mb);
      cursor = list[k].position + block_mb;
      ++distinct;
      prev = list[k].position;
    }
    const double total = surcharge + outbound + model.LocateTime(cursor, edge);
    const double bandwidth = static_cast<double>(distinct * block_mb) / total;
    if (best.len == 0 ||
        (bandwidth > best.bw && !NearlyEqual(bandwidth, best.bw))) {
      best.bw = bandwidth;
      best.len = k + 1;
    }
  }
  return best;
}

/// Steps 3-4 tape selection: the tape whose best prefix has the highest
/// incremental bandwidth. Ties (within relative epsilon — exact `==` on
/// accumulated doubles essentially never fires) go to the tape with the
/// most scheduled requests, then jukebox order from the mounted tape.
TapeId SelectBestTape(const std::vector<std::vector<Ext>>& ext,
                      const std::vector<TapeScore>& score,
                      const std::vector<int64_t>& counts, TapeId mounted,
                      int32_t num_tapes) {
  TapeId best = kInvalidTape;
  for (TapeId t = 0; t < num_tapes; ++t) {
    if (ext[static_cast<size_t>(t)].empty()) continue;
    bool better;
    if (best == kInvalidTape) {
      better = true;
    } else if (NearlyEqual(score[static_cast<size_t>(t)].bw,
                           score[static_cast<size_t>(best)].bw)) {
      const int64_t c_t = counts[static_cast<size_t>(t)];
      const int64_t c_b = counts[static_cast<size_t>(best)];
      better = c_t > c_b ||
               (c_t == c_b && ScanRankFrom(t, mounted, num_tapes) <
                                  ScanRankFrom(best, mounted, num_tapes));
    } else {
      better = score[static_cast<size_t>(t)].bw >
               score[static_cast<size_t>(best)].bw;
    }
    if (better) best = t;
  }
  return best;
}

/// Per-tape assigned requests consumed by the step-5 shrink loop. Replaces
/// a std::multimap<Position, Request>: the loop only ever reads/removes the
/// *max* element (the envelope edge), so a flat vector with a tracked max
/// index is enough. Ties on position resolve to the latest insertion
/// (matching multimap::rbegin, which lands on the last-inserted element
/// among equal keys).
struct AssignedList {
  struct Item {
    Position position;
    int64_t seq;
    Request request;
  };

  std::vector<Item> items;
  size_t max_index = 0;
  int64_t next_seq = 0;

  bool empty() const { return items.empty(); }

  void Add(Position position, const Request& request) {
    items.push_back(Item{position, next_seq++, request});
    // >= : among equal positions the later insertion wins (seq is higher).
    if (items.size() == 1 || position >= items[max_index].position) {
      max_index = items.size() - 1;
    }
  }

  const Item& Max() const {
    TJ_DCHECK(!items.empty());
    return items[max_index];
  }

  void RemoveMax() {
    items[max_index] = std::move(items.back());
    items.pop_back();
    max_index = 0;
    for (size_t i = 1; i < items.size(); ++i) {
      const Item& a = items[i];
      const Item& b = items[max_index];
      if (a.position > b.position ||
          (a.position == b.position && a.seq > b.seq)) {
        max_index = i;
      }
    }
  }
};

/// Oracle comparison: TJ_CHECK-fails unless the two kernels produced
/// byte-identical upper envelopes, assignments, and per-tape counts.
void CheckEnvelopeResultsEqual(
    const EnvelopeScheduler::EnvelopeResult& incremental,
    const EnvelopeScheduler::EnvelopeResult& reference) {
  TJ_CHECK(incremental.envelope == reference.envelope)
      << "incremental and reference envelopes diverged";
  TJ_CHECK(incremental.scheduled_per_tape == reference.scheduled_per_tape)
      << "incremental and reference per-tape counts diverged";
  TJ_CHECK(incremental.initial_envelope == reference.initial_envelope)
      << "step-2 initial envelopes diverged";
  TJ_CHECK_EQ(incremental.initially_unscheduled.size(),
              reference.initially_unscheduled.size());
  for (size_t i = 0; i < incremental.initially_unscheduled.size(); ++i) {
    TJ_CHECK_EQ(incremental.initially_unscheduled[i].id,
                reference.initially_unscheduled[i].id);
  }
  TJ_CHECK_EQ(incremental.assignment.size(), reference.assignment.size());
  for (const auto& [id, replica] : incremental.assignment) {
    const auto it = reference.assignment.find(id);
    TJ_CHECK(it != reference.assignment.end())
        << "request" << id << "assigned only by the incremental kernel";
    TJ_CHECK(replica == it->second)
        << "request" << id << "assigned to different replicas";
  }
}

}  // namespace

/// Mutable state shared by the two extension kernels: the result being
/// built, the per-tape assigned lists consumed by step 5, and the stable
/// post-step-2 unscheduled vector.
struct EnvelopeScheduler::KernelState {
  EnvelopeResult result;
  /// Per-tape assigned requests with their replica positions (several
  /// requests can name the same block; step 5 reads/removes the max).
  std::vector<AssignedList> assigned;
  /// Requests left unscheduled by step 2, in arrival order. Never
  /// reordered; the kernels track progress through side bitmaps.
  std::vector<Request> unscheduled;
  int64_t shrinks_done = 0;
  int64_t max_shrinks = 0;
  /// When false, the per-request assignment map is not materialized (the
  /// production reschedule path only consumes the envelope; the map is for
  /// the oracle cross-check and the theory validation).
  bool want_assignment = true;
  int64_t assigns_done = 0;  ///< Assign calls (reassignments included)

  void Assign(const Request& request, const Replica& replica) {
    if (want_assignment) result.assignment[request.id] = replica;
    ++assigns_done;
    ++result.scheduled_per_tape[static_cast<size_t>(replica.tape)];
    assigned[static_cast<size_t>(replica.tape)].Add(replica.position, request);
  }
};

/// Reusable kernel temporaries: survive across reschedules so the hot path
/// performs no per-call vector allocation once the buffers are warm.
struct EnvelopeScheduler::KernelScratch {
  std::vector<std::vector<Ext>> ext;
  std::vector<TapeScore> score;
  std::vector<char> dirty;
  std::vector<char> done;
  std::vector<size_t> enclosed;
  /// Slot-bucketing scratch for BucketExtListBySlot.
  std::vector<size_t> slot_counts;
  std::vector<Ext> bucketed;
  /// In-envelope replicas of the request being placed (step 2 absorb and
  /// step 5 moves); refilled on every use.
  std::vector<const Replica*> inside;
};

EnvelopeScheduler::EnvelopeScheduler(const Jukebox* jukebox,
                                     const Catalog* catalog,
                                     TapePolicy policy,
                                     const SchedulerOptions& options)
    : Scheduler(jukebox, catalog, options), policy_(policy) {}

EnvelopeScheduler::~EnvelopeScheduler() = default;

EnvelopeScheduler::KernelScratch& EnvelopeScheduler::Scratch() const {
  if (scratch_ == nullptr) scratch_ = std::make_unique<KernelScratch>();
  return *scratch_;
}

std::string EnvelopeScheduler::name() const {
  return std::string(TapePolicyName(policy_)) + " envelope";
}

const Replica* EnvelopeScheduler::ChooseInsideReplica(
    const std::vector<const Replica*>& inside,
    const std::vector<int64_t>& scheduled_per_tape, TapeId mounted) const {
  TJ_CHECK(!inside.empty());
  if (!options_.paper_replica_tiebreak) {
    // Ablation: lowest tape id, ignoring drive state and schedule sizes.
    return *std::min_element(inside.begin(), inside.end(),
                             [](const Replica* a, const Replica* b) {
                               return a->tape < b->tape;
                             });
  }
  const int32_t num_tapes = jukebox_->num_tapes();
  const Replica* best = nullptr;
  for (const Replica* replica : inside) {
    if (replica->tape == mounted) return replica;  // paper: mounted first
    if (best == nullptr) {
      best = replica;
      continue;
    }
    const int64_t count = scheduled_per_tape[static_cast<size_t>(
        replica->tape)];
    const int64_t best_count =
        scheduled_per_tape[static_cast<size_t>(best->tape)];
    if (count > best_count) {
      best = replica;
    } else if (count == best_count &&
               ScanRankFrom(replica->tape, mounted + 1, num_tapes) <
                   ScanRankFrom(best->tape, mounted + 1, num_tapes)) {
      best = replica;
    }
  }
  return best;
}

bool EnvelopeScheduler::TryAbsorb(const Request& request, KernelState* state,
                                  EnvelopeCounters* counters) const {
  const int64_t block_mb = jukebox_->config().block_size_mb;
  const auto& env = state->result.envelope;
  std::vector<const Replica*>& inside = Scratch().inside;
  inside.clear();
  for (const Replica& replica : catalog_->ReplicasOf(request.block)) {
    if (!catalog_->IsAlive(replica)) continue;
    if (replica.position + block_mb <=
        env[static_cast<size_t>(replica.tape)]) {
      inside.push_back(&replica);
    }
  }
  if (inside.empty()) return false;
  if (inside.size() > 1) ++counters->multi_replica_choices;
  state->Assign(request,
                *ChooseInsideReplica(inside, state->result.scheduled_per_tape,
                                     jukebox_->mounted_tape()));
  return true;
}

void EnvelopeScheduler::BuildInitialEnvelope(
    const std::vector<Request>& requests, KernelState* state,
    EnvelopeCounters* counters) const {
  const int32_t num_tapes = jukebox_->num_tapes();
  const int64_t block_mb = jukebox_->config().block_size_mb;
  const TapeId mounted = jukebox_->mounted_tape();

  state->result.envelope.assign(static_cast<size_t>(num_tapes), 0);
  state->result.scheduled_per_tape.assign(static_cast<size_t>(num_tapes), 0);
  if (state->want_assignment) {
    state->result.assignment.reserve(requests.size());
  }
  state->assigned.resize(static_cast<size_t>(num_tapes));
  state->max_shrinks =
      static_cast<int64_t>(requests.size()) * num_tapes + 16;
  auto& env = state->result.envelope;

  // Step 1: the highest non-replicated request on each tape pins the
  // initial envelope; the mounted tape's envelope covers the head. A block
  // with exactly one *live* replica counts as non-replicated (dead copies
  // cannot serve it).
  for (const Request& request : requests) {
    const Replica* sole_live = nullptr;
    bool multiple_live = false;
    for (const Replica& replica : catalog_->ReplicasOf(request.block)) {
      if (!catalog_->IsAlive(replica)) continue;
      if (sole_live != nullptr) {
        multiple_live = true;
        break;
      }
      sole_live = &replica;
    }
    if (sole_live != nullptr && !multiple_live) {
      Position& edge = env[static_cast<size_t>(sole_live->tape)];
      edge = std::max(edge, sole_live->position + block_mb);
    }
  }
  if (mounted != kInvalidTape) {
    env[static_cast<size_t>(mounted)] =
        std::max(env[static_cast<size_t>(mounted)], jukebox_->head());
  }

  // Step 2: absorb every request with a replica inside the envelope.
  for (const Request& request : requests) {
    if (!TryAbsorb(request, state, counters)) {
      state->unscheduled.push_back(request);
    }
  }
  state->result.initial_envelope = env;
  // Like the assignment map, the (S1, remaining) snapshot only feeds the
  // oracle and the theory checks.
  if (state->want_assignment) {
    state->result.initially_unscheduled = state->unscheduled;
  }
}

void EnvelopeScheduler::RunShrinkLoop(KernelState* state,
                                      EnvelopeCounters* counters,
                                      std::vector<char>* dirty) const {
  const int32_t num_tapes = jukebox_->num_tapes();
  const int64_t block_mb = jukebox_->config().block_size_mb;
  const TapeId mounted = jukebox_->mounted_tape();
  const Position head = jukebox_->head();
  auto& env = state->result.envelope;
  auto& counts = state->result.scheduled_per_tape;

  // Step 5: shrink. A replicated block scheduled at the outer edge of
  // some tape's envelope that also has a replica inside another tape's
  // envelope is moved there, and the donor envelope retreats to its
  // preceding scheduled request.
  while (options_.envelope_shrink &&
         state->shrinks_done < state->max_shrinks) {
    // Collect shrinkable tapes: edge request has an in-envelope replica
    // elsewhere.
    TapeId shrink_tape = kInvalidTape;
    for (TapeId a = 0; a < num_tapes; ++a) {
      const auto& on_a = state->assigned[static_cast<size_t>(a)];
      if (on_a.empty()) continue;
      const AssignedList::Item& edge = on_a.Max();
      if (edge.position + block_mb != env[static_cast<size_t>(a)]) continue;
      bool movable = false;
      for (const Replica& replica :
           catalog_->ReplicasOf(edge.request.block)) {
        if (!catalog_->IsAlive(replica)) continue;
        if (replica.tape != a &&
            replica.position + block_mb <=
                env[static_cast<size_t>(replica.tape)]) {
          movable = true;
          break;
        }
      }
      if (!movable) continue;
      if (shrink_tape == kInvalidTape ||
          counts[static_cast<size_t>(a)] <
              counts[static_cast<size_t>(shrink_tape)] ||
          (counts[static_cast<size_t>(a)] ==
               counts[static_cast<size_t>(shrink_tape)] &&
           a < shrink_tape)) {
        shrink_tape = a;
      }
    }
    if (shrink_tape == kInvalidTape) break;
    ++state->shrinks_done;
    ++counters->shrink_moves;

    auto& on_a = state->assigned[static_cast<size_t>(shrink_tape)];
    const Request moved = on_a.Max().request;
    std::vector<const Replica*>& inside = Scratch().inside;
    inside.clear();
    for (const Replica& replica : catalog_->ReplicasOf(moved.block)) {
      if (!catalog_->IsAlive(replica)) continue;
      if (replica.tape != shrink_tape &&
          replica.position + block_mb <=
              env[static_cast<size_t>(replica.tape)]) {
        inside.push_back(&replica);
      }
    }
    TJ_CHECK(!inside.empty());
    on_a.RemoveMax();
    --counts[static_cast<size_t>(shrink_tape)];
    const Replica* target = ChooseInsideReplica(inside, counts, mounted);
    state->Assign(moved, *target);
    // Retreat the donor envelope to its preceding scheduled request (or
    // the head / beginning of tape).
    Position base = (shrink_tape == mounted) ? head : 0;
    if (!on_a.empty()) {
      base = std::max(base, on_a.Max().position + block_mb);
    }
    env[static_cast<size_t>(shrink_tape)] = base;
    if (dirty != nullptr) (*dirty)[static_cast<size_t>(shrink_tape)] = 1;
  }
}

EnvelopeScheduler::EnvelopeResult EnvelopeScheduler::RunIncrementalKernel(
    const std::vector<Request>& requests, EnvelopeCounters* counters,
    bool want_assignment) const {
  const int32_t num_tapes = jukebox_->num_tapes();
  const int64_t block_mb = jukebox_->config().block_size_mb;
  const TapeId mounted = jukebox_->mounted_tape();
  const TimingModel& model = jukebox_->model();

  KernelState state;
  state.want_assignment = want_assignment;
  BuildInitialEnvelope(requests, &state, counters);
  auto& env = state.result.envelope;
  auto& counts = state.result.scheduled_per_tape;
  const std::vector<Request>& unscheduled = state.unscheduled;
  const size_t n = unscheduled.size();
  if (n == 0) return std::move(state.result);

  // Steps 3-6, incremental form. The per-tape extension lists are built
  // and sorted once; scheduled entries are lazily dropped, and a tape's
  // prefix scan is re-run only when its envelope edge moved or its list
  // lost entries (`dirty`).
  KernelScratch& scratch = Scratch();
  auto& ext = scratch.ext;
  ext.resize(static_cast<size_t>(num_tapes));
  for (auto& list : ext) list.clear();
  for (size_t i = 0; i < n; ++i) {
    for (const Replica& replica : catalog_->ReplicasOf(unscheduled[i].block)) {
      if (!catalog_->IsAlive(replica)) continue;
      TJ_DCHECK(replica.position >= env[static_cast<size_t>(replica.tape)]);
      ext[static_cast<size_t>(replica.tape)].push_back(
          Ext{replica.position, i, &replica});
    }
  }
  // Lists are built in ascending uid order, so bucketing by slot yields
  // the (position, uid) order the oracles reach with a comparator sort.
  for (auto& list : ext) {
    BucketExtListBySlot(&list, &scratch.slot_counts, &scratch.bucketed);
  }

  auto& score = scratch.score;
  score.assign(static_cast<size_t>(num_tapes), TapeScore{});
  auto& dirty = scratch.dirty;
  dirty.assign(static_cast<size_t>(num_tapes), 1);
  auto& done = scratch.done;
  done.assign(n, 0);
  size_t remaining = n;

  // Schedules unscheduled[uid] on `replica` and invalidates the cached
  // score of every tape whose extension list held an entry for it.
  auto schedule = [&](size_t uid, const Replica& replica) {
    TJ_CHECK(!done[uid]);
    done[uid] = 1;
    --remaining;
    state.Assign(unscheduled[uid], replica);
    for (const Replica& r : catalog_->ReplicasOf(unscheduled[uid].block)) {
      dirty[static_cast<size_t>(r.tape)] = 1;
    }
  };

  while (remaining > 0) {
    // Step 3 (cached): compact and re-score only the dirty tapes.
    for (TapeId t = 0; t < num_tapes; ++t) {
      if (!dirty[static_cast<size_t>(t)]) continue;
      dirty[static_cast<size_t>(t)] = 0;
      auto& list = ext[static_cast<size_t>(t)];
      list.erase(std::remove_if(list.begin(), list.end(),
                                [&](const Ext& e) { return done[e.uid]; }),
                 list.end());
      if (list.empty()) continue;
      const double surcharge =
          (env[static_cast<size_t>(t)] == 0 && t != mounted)
              ? model.SwitchTime()
              : 0.0;
      score[static_cast<size_t>(t)] = ScorePrefixes(
          model, list, env[static_cast<size_t>(t)], surcharge, block_mb);
      ++counters->tapes_rescored;
    }

    if (options_.validate_envelope) {
      // Round oracle: the maintained lists and cached scores must match a
      // from-scratch rebuild against the current envelope.
      for (TapeId t = 0; t < num_tapes; ++t) {
        std::vector<Ext> fresh;
        for (size_t i = 0; i < n; ++i) {
          if (done[i]) continue;
          for (const Replica& replica :
               catalog_->ReplicasOf(unscheduled[i].block)) {
            if (replica.tape != t || !catalog_->IsAlive(replica)) continue;
            fresh.push_back(Ext{replica.position, i, &replica});
          }
        }
        SortExtListByPosition(&fresh);
        const auto& list = ext[static_cast<size_t>(t)];
        TJ_CHECK_EQ(fresh.size(), list.size())
            << "stale extension list on tape" << t;
        for (size_t k = 0; k < fresh.size(); ++k) {
          TJ_CHECK_EQ(fresh[k].position, list[k].position);
          TJ_CHECK_EQ(fresh[k].uid, list[k].uid);
          TJ_CHECK(fresh[k].replica == list[k].replica);
        }
        if (list.empty()) continue;
        const double surcharge =
            (env[static_cast<size_t>(t)] == 0 && t != mounted)
                ? model.SwitchTime()
                : 0.0;
        const TapeScore fresh_score = ScorePrefixes(
            model, fresh, env[static_cast<size_t>(t)], surcharge, block_mb);
        TJ_CHECK_EQ(fresh_score.bw, score[static_cast<size_t>(t)].bw)
            << "stale cached score on tape" << t;
        TJ_CHECK_EQ(fresh_score.len, score[static_cast<size_t>(t)].len);
      }
    }

    const TapeId best_tape =
        SelectBestTape(ext, score, counts, mounted, num_tapes);
    TJ_CHECK_NE(best_tape, kInvalidTape)
        << "unscheduled request without replicas";
    ++counters->extension_rounds;

    // Step 4: extend the envelope over the winning prefix.
    const auto& winner = ext[static_cast<size_t>(best_tape)];
    const size_t best_len = score[static_cast<size_t>(best_tape)].len;
    const Position new_edge = winner[best_len - 1].position + block_mb;
    env[static_cast<size_t>(best_tape)] = new_edge;
    dirty[static_cast<size_t>(best_tape)] = 1;  // edge moved
    for (size_t k = 0; k < best_len; ++k) {
      const Replica& replica = *winner[k].replica;
      TJ_DCHECK(replica ==
                *catalog_->ReplicaOn(unscheduled[winner[k].uid].block,
                                     best_tape))
          << "extension entry does not match the catalog replica";
      schedule(winner[k].uid, replica);
    }
    // Absorb any request whose replica the extension just enclosed (e.g. a
    // second request for a block at the new envelope edge). Only the
    // extended tape's envelope grew, so candidates are exactly the pending
    // entries of its list inside the new edge; absorb in arrival order.
    auto& enclosed = scratch.enclosed;
    enclosed.clear();
    for (size_t k = best_len; k < winner.size(); ++k) {
      if (!done[winner[k].uid] &&
          winner[k].position + block_mb <= new_edge) {
        enclosed.push_back(winner[k].uid);
      }
    }
    std::sort(enclosed.begin(), enclosed.end());
    for (const size_t uid : enclosed) {
      const int64_t before = state.assigns_done;
      TJ_CHECK(TryAbsorb(unscheduled[uid], &state, counters));
      TJ_CHECK_EQ(before + 1, state.assigns_done);
      done[uid] = 1;
      --remaining;
      for (const Replica& r :
           catalog_->ReplicasOf(unscheduled[uid].block)) {
        dirty[static_cast<size_t>(r.tape)] = 1;
      }
    }

    RunShrinkLoop(&state, counters, &dirty);
  }
  return std::move(state.result);
}

EnvelopeScheduler::EnvelopeResult EnvelopeScheduler::RunReferenceKernel(
    const std::vector<Request>& requests, EnvelopeCounters* counters) const {
  const int32_t num_tapes = jukebox_->num_tapes();
  const int64_t block_mb = jukebox_->config().block_size_mb;
  const TapeId mounted = jukebox_->mounted_tape();
  const TimingModel& model = jukebox_->model();

  KernelState state;
  BuildInitialEnvelope(requests, &state, counters);
  auto& env = state.result.envelope;
  auto& counts = state.result.scheduled_per_tape;
  const std::vector<Request>& unscheduled = state.unscheduled;
  const size_t n = unscheduled.size();

  std::vector<bool> done(n, false);
  size_t remaining = n;

  // Steps 3-6, from-scratch form: every round re-enumerates, re-sorts,
  // and fully re-scores the per-tape extension lists.
  while (remaining > 0) {
    std::vector<std::vector<Ext>> ext(static_cast<size_t>(num_tapes));
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      for (const Replica& replica :
           catalog_->ReplicasOf(unscheduled[i].block)) {
        if (!catalog_->IsAlive(replica)) continue;
        TJ_DCHECK(replica.position >=
                  env[static_cast<size_t>(replica.tape)]);
        ext[static_cast<size_t>(replica.tape)].push_back(
            Ext{replica.position, i, &replica});
      }
    }
    std::vector<TapeScore> score(static_cast<size_t>(num_tapes));
    for (TapeId t = 0; t < num_tapes; ++t) {
      auto& list = ext[static_cast<size_t>(t)];
      if (list.empty()) continue;
      SortExtListByPosition(&list);
      const double surcharge =
          (env[static_cast<size_t>(t)] == 0 && t != mounted)
              ? model.SwitchTime()
              : 0.0;
      score[static_cast<size_t>(t)] = ScorePrefixes(
          model, list, env[static_cast<size_t>(t)], surcharge, block_mb);
    }
    const TapeId best_tape =
        SelectBestTape(ext, score, counts, mounted, num_tapes);
    TJ_CHECK_NE(best_tape, kInvalidTape)
        << "unscheduled request without replicas";
    ++counters->extension_rounds;

    // Step 4: extend the envelope over the winning prefix.
    const auto& winner = ext[static_cast<size_t>(best_tape)];
    const size_t best_len = score[static_cast<size_t>(best_tape)].len;
    env[static_cast<size_t>(best_tape)] =
        winner[best_len - 1].position + block_mb;
    for (size_t k = 0; k < best_len; ++k) {
      TJ_CHECK(!done[winner[k].uid]);
      done[winner[k].uid] = true;
      --remaining;
      state.Assign(unscheduled[winner[k].uid], *winner[k].replica);
    }
    // Absorb any request whose replica the extension just enclosed.
    for (size_t i = 0; i < n; ++i) {
      if (done[i]) continue;
      if (TryAbsorb(unscheduled[i], &state, counters)) {
        done[i] = true;
        --remaining;
      }
    }

    RunShrinkLoop(&state, counters, nullptr);
  }
  return std::move(state.result);
}

EnvelopeScheduler::EnvelopeResult EnvelopeScheduler::ComputeUpperEnvelope(
    const std::vector<Request>& requests) const {
  return RunIncrementalKernel(requests, &counters_, /*want_assignment=*/true);
}

EnvelopeScheduler::EnvelopeResult
EnvelopeScheduler::ComputeUpperEnvelopeReference(
    const std::vector<Request>& requests) const {
  EnvelopeCounters scratch;
  return RunReferenceKernel(requests, &scratch);
}

void EnvelopeScheduler::CrossCheckEnvelope(
    const std::vector<Request>& requests) const {
  EnvelopeCounters incremental_counters;
  EnvelopeCounters reference_counters;
  const EnvelopeResult incremental = RunIncrementalKernel(
      requests, &incremental_counters, /*want_assignment=*/true);
  const EnvelopeResult reference =
      RunReferenceKernel(requests, &reference_counters);
  CheckEnvelopeResultsEqual(incremental, reference);
  TJ_CHECK_EQ(incremental_counters.extension_rounds,
              reference_counters.extension_rounds)
      << "kernels took different numbers of extension rounds";
}

TapeId EnvelopeScheduler::TryEpochReschedule() {
  // The persisted envelope stays reusable across catalog mutations (a
  // replica dying or being repaired mid-epoch): the candidate walk
  // re-derives servability from live replicas only.
  BuildTapeCandidates(*jukebox_, *catalog_, pending_, &envelope_,
                      &candidates_);
  DropClaimedCandidates();
  const TapeId tape =
      SelectTape(policy_, candidates_.tapes(), jukebox_->mounted_tape(),
                 jukebox_->head(), jukebox_->num_tapes(), cost_);
  if (tape == kInvalidTape) return kInvalidTape;
  RecordDecision(/*background=*/false, tape, candidates_.tapes());
  ExtractSweepForTape(&candidates_, tape, StartHead(tape), &pending_,
                      &served_sweep());
  TJ_CHECK(!served_sweep().empty());
  PiggybackBackground(tape);
  return tape;
}

TapeId EnvelopeScheduler::MajorReschedule() {
  TJ_CHECK(served_sweep().empty());
  // Batched arrivals join the pending list through the normal incremental
  // path before anything is decided from it.
  FlushArrivals();
  if (pending_.empty()) {
    // No client work: the envelope does not apply to background-only
    // sweeps, so fall back to the shared background rescheduler.
    envelope_valid_ = false;
    epoch_visits_ = 0;
    return BackgroundReschedule();
  }

  // Epoch fast path: reuse the previous envelope for another tape visit.
  if (options_.reschedule_epoch > 1 && envelope_valid_ &&
      epoch_visits_ < options_.reschedule_epoch) {
    const TapeId tape = TryEpochReschedule();
    if (tape != kInvalidTape) {
      ++epoch_visits_;
      ++counters_.epoch_reuses;
      return tape;
    }
    // Nothing pending is inside the stale envelope: recompute below.
  }

  const std::vector<Request> requests(pending_.begin(), pending_.end());
  ++counters_.major_reschedules;
  const int64_t rounds_before = counters_.extension_rounds;
  const int64_t rescored_before = counters_.tapes_rescored;
  // The assignment map is only materialized for the oracle comparison;
  // the reschedule itself consumes the envelope alone.
  EnvelopeResult result = RunIncrementalKernel(
      requests, &counters_, /*want_assignment=*/options_.validate_envelope);
  if (options_.validate_envelope) {
    EnvelopeCounters scratch;
    CheckEnvelopeResultsEqual(result, RunReferenceKernel(requests, &scratch));
  }

  // Tape choice: apply the policy to the set of requests each tape can
  // satisfy within the upper envelope (a superset of the per-tape
  // assignment built above).
  BuildTapeCandidates(*jukebox_, *catalog_, pending_, &result.envelope,
                      &candidates_);
  DropClaimedCandidates();
  const TapeId tape =
      SelectTape(policy_, candidates_.tapes(), jukebox_->mounted_tape(),
                 jukebox_->head(), jukebox_->num_tapes(), cost_);
  if (tape == kInvalidTape) {
    // Every tape with in-envelope work is held by another drive.
    TJ_CHECK_GT(jukebox_->num_drives(), 1);
    return kInvalidTape;
  }
  RecordDecision(/*background=*/false, tape, candidates_.tapes(),
                 counters_.extension_rounds - rounds_before,
                 counters_.tapes_rescored - rescored_before);
  ExtractSweepForTape(&candidates_, tape, StartHead(tape), &pending_,
                      &served_sweep());
  TJ_CHECK(!served_sweep().empty());
  // Background riders may lie beyond the envelope edge: the mount is paid
  // for anyway, and client insertions never depend on riders (the sweep
  // edge check in ShrinkActiveSweep compares against the envelope, which
  // riders by definition exceed, so shrinking simply stops there).
  PiggybackBackground(tape);
  envelope_ = std::move(result.envelope);
  envelope_valid_ = true;
  epoch_visits_ = 1;
  return tape;
}

std::vector<Request> EnvelopeScheduler::DrainSweep() {
  envelope_valid_ = false;
  epoch_visits_ = 0;
  return Scheduler::DrainSweep();
}

void EnvelopeScheduler::DeferInOrder(const Request& request) {
  // A trimmed block's riders go back to the background queue, not the
  // client pending list (they must never pin a client envelope).
  std::deque<Request>& queue =
      request.cls == RequestClass::kBackground ? background_ : pending_;
  auto it = std::lower_bound(
      queue.begin(), queue.end(), request.id,
      [](const Request& r, RequestId id) { return r.id < id; });
  queue.insert(it, request);
}

void EnvelopeScheduler::ShrinkActiveSweep(TapeId extended_tape,
                                          Position committed_head) {
  const TapeId mounted = jukebox_->mounted_tape();
  if (mounted == kInvalidTape || mounted == extended_tape) return;
  const int64_t block_mb = jukebox_->config().block_size_mb;
  Sweep& sweep = served_sweep();
  while (!sweep.empty()) {
    // The sweep's outermost block: end of the forward phase or start of the
    // reverse phase, whichever is farther out.
    Position edge_pos = -1;
    BlockId edge_block = kInvalidBlock;
    if (!sweep.forward().empty()) {
      edge_pos = sweep.forward().back().position;
      edge_block = sweep.forward().back().block;
    }
    if (!sweep.reverse().empty() &&
        sweep.reverse().front().position > edge_pos) {
      edge_pos = sweep.reverse().front().position;
      edge_block = sweep.reverse().front().block;
    }
    // Shrinking only applies when the envelope edge is a scheduled block.
    if (edge_pos + block_mb !=
        envelope_[static_cast<size_t>(mounted)]) {
      return;
    }
    const Replica* replica =
        catalog_->LiveReplicaOn(edge_block, extended_tape);
    if (replica == nullptr ||
        replica->position + block_mb >
            envelope_[static_cast<size_t>(extended_tape)]) {
      return;
    }
    // Move the edge block's requests off the active sweep; they will be
    // rescheduled (normally on `extended_tape`) at the next reschedule.
    std::optional<ServiceEntry> removed = sweep.RemoveBlock(edge_block);
    TJ_CHECK(removed.has_value());
    ++counters_.sweep_trims;
    for (const Request& request : removed->requests) DeferInOrder(request);
    Position new_edge = std::max<Position>(committed_head, 0);
    if (!sweep.forward().empty()) {
      new_edge = std::max(new_edge,
                          sweep.forward().back().position + block_mb);
    }
    if (!sweep.reverse().empty()) {
      new_edge = std::max(new_edge,
                          sweep.reverse().front().position + block_mb);
    }
    envelope_[static_cast<size_t>(mounted)] = new_edge;
  }
}

void EnvelopeScheduler::OnArrivalNow(const Request& request,
                                     Position committed_head) {
  const TapeId mounted = jukebox_->mounted_tape();
  Sweep& sweep = served_sweep();
  if (!envelope_valid_ || sweep.empty() || mounted == kInvalidTape) {
    pending_.push_back(request);
    return;
  }
  const int64_t block_mb = jukebox_->config().block_size_mb;
  const TimingModel& model = jukebox_->model();

  // (a) Satisfiable by the mounted tape within the upper envelope: insert
  // into the running sweep like the dynamic incremental scheduler.
  const Replica* on_mounted = catalog_->LiveReplicaOn(request.block, mounted);
  if (on_mounted != nullptr &&
      on_mounted->position + block_mb <=
          envelope_[static_cast<size_t>(mounted)] &&
      sweep.InsertRequest(request, on_mounted->position, committed_head,
                           options_.allow_reverse_phase)) {
    ++counters_.incremental_inserts;
    return;
  }

  // (b) A replica inside some tape's envelope: no extension needed; the
  // request waits for that tape's next visit.
  for (const Replica& replica : catalog_->ReplicasOf(request.block)) {
    if (!catalog_->IsAlive(replica)) continue;
    if (replica.position + block_mb <=
        envelope_[static_cast<size_t>(replica.tape)]) {
      pending_.push_back(request);
      return;
    }
  }

  // (c) Outside the envelope everywhere: apply the extension step (3-5) to
  // this one request — pick the replica with the cheapest incremental cost.
  const Replica* best = nullptr;
  double best_cost = 0;
  for (const Replica& replica : catalog_->ReplicasOf(request.block)) {
    if (!catalog_->IsAlive(replica)) continue;
    const Position edge = envelope_[static_cast<size_t>(replica.tape)];
    const double surcharge =
        (edge == 0 && replica.tape != mounted) ? model.SwitchTime() : 0.0;
    const double cost =
        surcharge + model.LocateAndReadTime(edge, replica.position, block_mb) +
        model.LocateTime(replica.position + block_mb, edge);
    if (best == nullptr || cost < best_cost) {
      best = &replica;
      best_cost = cost;
    }
  }
  TJ_CHECK(best != nullptr);

  if (best->tape == mounted) {
    if (sweep.InsertRequest(request, best->position, committed_head,
                             options_.allow_reverse_phase)) {
      ++counters_.incremental_inserts;
      ++counters_.incremental_extensions;
      envelope_[static_cast<size_t>(mounted)] =
          std::max(envelope_[static_cast<size_t>(mounted)],
                   best->position + block_mb);
      return;
    }
    pending_.push_back(request);
    return;
  }
  // Extend the envelope on the winning tape; this can make the mounted
  // tape's outermost scheduled block redundant (step 5), trimming the
  // active sweep.
  ++counters_.incremental_extensions;
  envelope_[static_cast<size_t>(best->tape)] =
      std::max(envelope_[static_cast<size_t>(best->tape)],
               best->position + block_mb);
  if (options_.envelope_shrink) {
    ShrinkActiveSweep(best->tape, committed_head);
  }
  pending_.push_back(request);
}

}  // namespace tapejuke
