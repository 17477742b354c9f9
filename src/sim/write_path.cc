#include "sim/write_path.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "sched/schedule_cost.h"
#include "util/check.h"

namespace tapejuke {

Status WritePathConfig::Validate() const {
  if (buffer_capacity_blocks <= 0) {
    return Status::InvalidArgument("buffer capacity must be positive");
  }
  if (piggyback_min_blocks < 1) {
    return Status::InvalidArgument("piggyback_min_blocks must be >= 1");
  }
  if (hot_write_fraction < 0 || hot_write_fraction > 1) {
    return Status::InvalidArgument("hot_write_fraction must be in [0, 1]");
  }
  return Status::Ok();
}

WriteBuffer::WriteBuffer(Jukebox* jukebox, const Catalog* catalog,
                         const WritePathConfig& config, uint64_t seed,
                         double run_seconds)
    : jukebox_(jukebox),
      catalog_(catalog),
      config_(config),
      run_seconds_(run_seconds),
      rng_(seed) {
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  next_write_ = config.mean_write_interarrival_seconds > 0
                    ? rng_.Exponential(config.mean_write_interarrival_seconds)
                    : std::numeric_limits<double>::infinity();
}

void WriteBuffer::StageUpTo(double now) {
  while (next_write_ <= now) {
    // Writes pick blocks with their own skew, independent of reads.
    const int64_t hot = catalog_->num_hot_blocks();
    const int64_t cold = catalog_->num_cold_blocks();
    bool pick_hot = rng_.Bernoulli(config_.hot_write_fraction);
    if (hot == 0) pick_hot = false;
    if (cold == 0) pick_hot = true;
    const BlockId block =
        pick_hot ? static_cast<BlockId>(
                       rng_.UniformUint64(static_cast<uint64_t>(hot)))
                 : hot + static_cast<BlockId>(rng_.UniformUint64(
                             static_cast<uint64_t>(cold)));
    ++stats_.writes_accepted;
    // A write must eventually update every tape-resident copy of the block.
    for (const Replica& replica : catalog_->ReplicasOf(block)) {
      auto [it, inserted] = dirty_[replica.tape].insert(replica.position);
      if (inserted) {
        ++occupancy_;
        ++stats_.dirty_updates_created;
      }
    }
    stats_.max_buffer_occupancy =
        std::max(stats_.max_buffer_occupancy, occupancy_);
    next_write_ += rng_.Exponential(config_.mean_write_interarrival_seconds);
  }
}

double WriteBuffer::FlushTape(TapeId tape) {
  auto it = dirty_.find(tape);
  if (it == dirty_.end() || it->second.empty()) return 0;
  TJ_CHECK_EQ(jukebox_->mounted_tape(), tape);
  std::vector<Position> positions(it->second.begin(), it->second.end());
  const std::vector<Position> order =
      ScheduleCost::SweepOrder(jukebox_->head(), std::move(positions));
  double elapsed = 0;
  Drive& drive = jukebox_->drive();
  for (const Position p : order) {
    elapsed += drive.LocateTo(p);
    elapsed += drive.Read(jukebox_->config().block_size_mb);  // write ~ read
    ++stats_.blocks_flushed;
  }
  occupancy_ -= static_cast<int64_t>(it->second.size());
  TJ_CHECK_GE(occupancy_, 0);
  dirty_.erase(it);
  stats_.write_seconds += elapsed;
  return elapsed;
}

TapeId WriteBuffer::DirtiestTape() const {
  TapeId tape = kInvalidTape;
  size_t most = 0;
  for (const auto& [t, positions] : dirty_) {
    if (positions.size() > most && !jukebox_->HeldByOtherDrive(t)) {
      most = positions.size();
      tape = t;
    }
  }
  return tape;
}

double WriteBuffer::FlushDirtiest(int64_t* flushes) {
  const TapeId tape = DirtiestTape();
  TJ_CHECK_NE(tape, kInvalidTape);
  ++*flushes;
  const double switch_seconds = jukebox_->SwitchTo(tape);
  return switch_seconds + FlushTape(tape);
}

double WriteBuffer::AtSweepBoundary(double now) {
  StageUpTo(now);
  double seconds = 0;
  // Piggyback: the sweep just drained and the drive is already on this
  // tape — clean its dirty blocks before the next reschedule.
  const auto it = dirty_.find(jukebox_->mounted_tape());
  if (config_.piggyback && it != dirty_.end() &&
      static_cast<int64_t>(it->second.size()) >=
          config_.piggyback_min_blocks) {
    seconds += FlushTape(it->first);
    ++stats_.piggyback_flushes;
  }
  // Forced flush: the staging buffer is over capacity; reads wait.
  StageUpTo(now + seconds);
  while (OverCapacity() && now + seconds < run_seconds_ &&
         DirtiestTape() != kInvalidTape) {
    // The mount starts after the flushes so far (the robot arm queue).
    jukebox_->Serve(jukebox_->served_drive(), now + seconds);
    seconds += FlushDirtiest(&stats_.forced_flushes);
    StageUpTo(now + seconds);
  }
  return seconds;
}

double WriteBuffer::NextIdleWorkTime(double now) {
  StageUpTo(now);
  const bool due = (OverCapacity() || (config_.idle_flush && occupancy_ > 0)) &&
                   DirtiestTape() != kInvalidTape;
  return due ? now : next_write_;
}

BackgroundWork::Quantum WriteBuffer::IdleQuantum(double now) {
  Quantum quantum;
  if (NextIdleWorkTime(now) > now) return quantum;
  // Clean ahead of demand; over capacity it is a forced flush.
  quantum.seconds = FlushDirtiest(OverCapacity() ? &stats_.forced_flushes
                                                 : &stats_.idle_flushes);
  return quantum;
}

void WriteBuffer::OnClientCompletion(const Request& request, double now) {
  (void)request;
  StageUpTo(now);
}

WritebackSimulator::WritebackSimulator(Jukebox* jukebox,
                                       const Catalog* catalog,
                                       Scheduler* scheduler,
                                       const SimulationConfig& sim,
                                       const WritePathConfig& writes)
    : buffer_(jukebox, catalog, writes,
              sim.workload.seed ^ 0x9e3779b97f4a7c15ULL,
              sim.duration_seconds),
      sim_(jukebox, catalog, scheduler, sim, &buffer_) {}

}  // namespace tapejuke
