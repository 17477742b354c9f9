#include "sim/lifecycle.h"

#include <algorithm>
#include <limits>

#include "util/check.h"

namespace tapejuke {

Status LifecycleConfig::Validate() const {
  if (fill_budget_seconds < 0) {
    return Status::InvalidArgument("fill budget must be >= 0");
  }
  if (target_copies < 1) {
    return Status::InvalidArgument("target_copies must be >= 1");
  }
  if (num_epochs < 1) {
    return Status::InvalidArgument("need at least one epoch");
  }
  return Status::Ok();
}

ReplicaFiller::ReplicaFiller(Jukebox* jukebox, Catalog* catalog,
                             const LifecycleConfig& config,
                             double run_seconds)
    : jukebox_(jukebox),
      catalog_(catalog),
      config_(config),
      epoch_seconds_(run_seconds / config.num_epochs) {
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  TJ_CHECK_LE(config.target_copies, jukebox->num_tapes());
  epochs_.resize(static_cast<size_t>(config.num_epochs));
  delay_sum_.assign(epochs_.size(), 0.0);
  for (size_t e = 0; e < epochs_.size(); ++e) {
    epochs_[e].start_seconds = static_cast<double>(e) * epoch_seconds_;
    epochs_[e].end_seconds = epochs_[e].start_seconds + epoch_seconds_;
  }

  const int32_t num_tapes = jukebox->num_tapes();
  free_slots_.resize(static_cast<size_t>(num_tapes));
  next_hot_.assign(static_cast<size_t>(num_tapes), 0);
  for (TapeId t = 0; t < num_tapes; ++t) {
    const Tape& tape = jukebox->tape(t);
    // Descending order: replicas land at the tape end first (§4.5).
    for (int64_t s = tape.num_slots() - 1; s >= 0; --s) {
      if (tape.BlockAtSlot(s) == kInvalidBlock) {
        free_slots_[static_cast<size_t>(t)].push_back(s);
      }
    }
  }
  // Fill target: every hot block reaches target_copies copies (bounded by
  // what distinct tapes allow).
  for (BlockId b = 0; b < catalog->num_hot_blocks(); ++b) {
    const auto have = static_cast<int64_t>(catalog->ReplicasOf(b).size());
    fill_target_ += std::max<int64_t>(0, config.target_copies - have);
  }
}

TapeId ReplicaFiller::NeediestTape() {
  if (neediest_.has_value()) return *neediest_;
  TapeId best = kInvalidTape;
  int64_t best_need = 0;
  for (TapeId t = 0; t < jukebox_->num_tapes(); ++t) {
    if (free_slots_[static_cast<size_t>(t)].empty()) continue;
    // Count hot blocks still missing a copy here (capped: exact counts are
    // only needed to rank tapes).
    int64_t missing = 0;
    for (BlockId b = 0; b < catalog_->num_hot_blocks(); ++b) {
      if (WantsCopyOn(b, t)) ++missing;
    }
    const int64_t need = std::min(
        missing,
        static_cast<int64_t>(free_slots_[static_cast<size_t>(t)].size()));
    if (need > best_need) {
      best_need = need;
      best = t;
    }
  }
  neediest_ = best;
  return best;
}

bool ReplicaFiller::WantsCopyOn(BlockId block, TapeId tape) const {
  return static_cast<int32_t>(catalog_->ReplicasOf(block).size()) <
             config_.target_copies &&
         catalog_->ReplicaOn(block, tape) == nullptr;
}

double ReplicaFiller::FillMountedTape(double now) {
  read_since_fill_ = false;
  const TapeId tape_id = jukebox_->mounted_tape();
  if (tape_id == kInvalidTape) return 0;
  auto& free = free_slots_[static_cast<size_t>(tape_id)];
  BlockId& cursor = next_hot_[static_cast<size_t>(tape_id)];
  const int64_t hot = catalog_->num_hot_blocks();

  double elapsed = 0;
  Drive& drive = jukebox_->drive();
  Tape& tape = jukebox_->tape(tape_id);
  while (!free.empty() && elapsed < config_.fill_budget_seconds) {
    // Next hot block that still wants a copy and lacks one on this tape.
    BlockId chosen = kInvalidBlock;
    for (int64_t scanned = 0; scanned < hot; ++scanned) {
      const BlockId candidate = cursor;
      cursor = (cursor + 1) % hot;
      if (WantsCopyOn(candidate, tape_id)) {
        chosen = candidate;
        break;
      }
    }
    if (chosen == kInvalidBlock) break;  // tape already has all it can take

    const int64_t slot = free.front();
    free.erase(free.begin());
    const Position position = tape.PositionOfSlot(slot);
    // The source data is read from the disk/memory tier (hot data is
    // cached there per §2); only the tape-side locate + write costs time.
    elapsed += drive.LocateTo(position);
    elapsed += drive.Read(jukebox_->config().block_size_mb);  // write cost
    const Status placed = tape.PlaceBlock(chosen, slot);
    TJ_CHECK(placed.ok()) << placed.ToString();
    catalog_->AddReplica(chosen, Replica{tape_id, slot, position});
    ++replicas_written_;
    neediest_.reset();
  }
  NoteFill(now + elapsed);
  return elapsed;
}

size_t ReplicaFiller::EpochOf(double t) const {
  return std::min(static_cast<size_t>(t / epoch_seconds_),
                  epochs_.size() - 1);
}

void ReplicaFiller::NoteFill(double now) {
  const double fraction =
      fill_target_ > 0 ? static_cast<double>(replicas_written_) /
                             static_cast<double>(fill_target_)
                       : 1.0;
  for (size_t e = EpochOf(now); e < epochs_.size(); ++e) {
    epochs_[e].fill_fraction = fraction;
  }
}

double ReplicaFiller::AtSweepBoundary(double now) {
  // Piggyback fill: a read sweep drained and the drive is already here.
  // An idle fill needs no second pass before the next read sweep.
  if (!read_since_fill_ || replicas_written_ >= fill_target_) return 0;
  return FillMountedTape(now);
}

double ReplicaFiller::NextIdleWorkTime(double now) {
  // A tape to fill implies the fill target is not yet met.
  const bool fill = config_.fill_on_idle && config_.fill_budget_seconds > 0 &&
                    NeediestTape() != kInvalidTape &&
                    !jukebox_->HeldByOtherDrive(NeediestTape());
  return fill ? now : std::numeric_limits<double>::infinity();
}

BackgroundWork::Quantum ReplicaFiller::IdleQuantum(double now) {
  Quantum quantum;
  const TapeId tape = NeediestTape();
  if (tape == kInvalidTape || jukebox_->HeldByOtherDrive(tape)) {
    return quantum;
  }
  quantum.seconds = jukebox_->SwitchTo(tape);
  quantum.seconds += FillMountedTape(now + quantum.seconds);
  return quantum;
}

void ReplicaFiller::OnClientCompletion(const Request& request, double now) {
  read_since_fill_ = true;
  const size_t e = EpochOf(now);
  ++epochs_[e].completed_requests;
  delay_sum_[e] += now - request.arrival_time;
}

std::vector<EpochStats> ReplicaFiller::Epochs(double end) {
  NoteFill(end);
  for (size_t e = 0; e < epochs_.size(); ++e) {
    EpochStats& stats = epochs_[e];
    const auto completed = static_cast<double>(stats.completed_requests);
    stats.requests_per_minute = completed / (epoch_seconds_ / 60.0);
    stats.mean_delay_minutes =
        completed > 0 ? delay_sum_[e] / completed / 60.0 : 0.0;
  }
  return epochs_;
}

LifecycleSimulator::LifecycleSimulator(Jukebox* jukebox, Catalog* catalog,
                                       Scheduler* scheduler,
                                       const SimulationConfig& sim,
                                       const LifecycleConfig& lifecycle)
    : filler_(jukebox, catalog, lifecycle, sim.duration_seconds),
      // The const-catalog Simulator: fault injection stays rejected.
      sim_(jukebox, static_cast<const Catalog*>(catalog), scheduler, sim,
           &filler_) {}

}  // namespace tapejuke
