#include "tape/jukebox.h"

#include <algorithm>
#include <limits>
#include <string>

#include "util/check.h"

namespace tapejuke {

std::vector<Field> JukeboxConfig::Fields() {
  std::vector<Field> rows = timing.Fields();
  rows.insert(rows.begin(),
              {{"num_tapes", &num_tapes, AtLeast(1),
                {"tapes", "tapes in the jukebox"}},
               {"block_size_mb", &block_size_mb, AtLeast(1),
                {"block-mb", "logical block size, MB"}}});
  rows.push_back({"rewind_before_eject", &rewind_before_eject});
  rows.push_back({"num_drives", &num_drives, AtLeast(1),
                  {"drives",
                   "drives in the cabinet (>1 shares the tapes and robot "
                   "arm)"},
                  false});
  return rows;
}

Status JukeboxConfig::Validate() const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
  if (num_drives > num_tapes) {
    return Status::InvalidArgument(
        "more drives than tapes: " + std::to_string(num_drives) +
        " drives for " + std::to_string(num_tapes) + " tapes");
  }
  if (block_size_mb > timing.tape_capacity_mb) {
    return Status::InvalidArgument("block size exceeds tape capacity");
  }
  // The scheduler's candidate index keeps a slot in 32 bits
  // (CandidateMember::slot), so a tape may hold at most INT32_MAX slots.
  if (timing.tape_capacity_mb / block_size_mb >
      std::numeric_limits<int32_t>::max()) {
    return Status::InvalidArgument(
        "tape capacity / block size exceeds 2^31 - 1 slots per tape");
  }
  return Status::Ok();
}

Jukebox::Jukebox(const JukeboxConfig& config)
    : config_(config), model_(config.timing) {
  const Status status = config.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
  drives_.assign(static_cast<size_t>(config.num_drives), Drive(&model_));
  tapes_.reserve(static_cast<size_t>(config.num_tapes));
  for (TapeId id = 0; id < config.num_tapes; ++id) {
    tapes_.emplace_back(id, config.timing.tape_capacity_mb,
                        config.block_size_mb);
  }
}

Tape& Jukebox::tape(TapeId id) {
  TJ_CHECK(id >= 0 && id < num_tapes()) << "bad tape id" << id;
  return tapes_[static_cast<size_t>(id)];
}

const Tape& Jukebox::tape(TapeId id) const {
  TJ_CHECK(id >= 0 && id < num_tapes()) << "bad tape id" << id;
  return tapes_[static_cast<size_t>(id)];
}

void Jukebox::SetNumDrives(int32_t num_drives) {
  TJ_CHECK_GE(num_drives, 1) << "need at least one drive";
  TJ_CHECK_LE(num_drives, num_tapes()) << "more drives than tapes";
  for (const Drive& d : drives_) {
    TJ_CHECK(!d.has_tape()) << "SetNumDrives on a jukebox in use";
  }
  drives_.assign(static_cast<size_t>(num_drives), Drive(&model_));
  config_.num_drives = num_drives;
  served_ = 0;
}

bool Jukebox::HeldByOtherDrive(TapeId tape) const {
  for (size_t d = 0; d < drives_.size(); ++d) {
    if (static_cast<int32_t>(d) != served_ &&
        drives_[d].loaded_tape() == tape) {
      return true;
    }
  }
  return false;
}

double Jukebox::SwitchTo(TapeId target, SwitchBreakdown* breakdown) {
  TJ_CHECK(target >= 0 && target < num_tapes()) << "bad tape id" << target;
  if (breakdown != nullptr) *breakdown = SwitchBreakdown{};
  Drive& unit = drive();
  if (unit.loaded_tape() == target) return 0.0;
  TJ_CHECK(!HeldByOtherDrive(target))
      << "tape" << target << "is loaded in another drive";
  double elapsed = 0.0;
  if (unit.has_tape()) {
    if (config_.rewind_before_eject || unit.head() == 0) {
      const double rewind = unit.Rewind();
      counters_.rewind_seconds += rewind;
      elapsed += rewind;
      if (breakdown != nullptr) breakdown->rewind = rewind;
      const double eject = unit.Eject();
      counters_.switch_seconds += eject;
      elapsed += eject;
      if (breakdown != nullptr) breakdown->eject = eject;
    } else {
      // Hypothetical eject-anywhere drive: skip the rewind. Reset the head
      // through a free rewind so Drive's eject precondition holds; no time
      // is charged.
      unit.Rewind();
      const double eject = unit.Eject();
      counters_.switch_seconds += eject;
      elapsed += eject;
      if (breakdown != nullptr) breakdown->eject = eject;
    }
  }
  // The swap queues behind the arm's earlier swaps; a lone drive never
  // finds it busy.
  double wait = 0.0;
  if (drives_.size() > 1) {
    wait = std::max(0.0, robot_free_at_ - (now_ + elapsed));
    counters_.robot_wait_seconds += wait;
    elapsed += wait;
  }
  const double robot = model_.params().robot_seconds;
  counters_.switch_seconds += robot;
  elapsed += robot;
  robot_free_at_ = now_ + elapsed;
  const double load = unit.Load(target);
  counters_.switch_seconds += load;
  elapsed += load;
  ++counters_.tape_switches;
  if (breakdown != nullptr) {
    breakdown->robot_wait = wait;
    breakdown->robot = robot;
    breakdown->load = load;
  }
  return elapsed;
}

double Jukebox::ReadBlockAt(Position position, ReadBreakdown* breakdown) {
  Drive& unit = drive();
  TJ_CHECK(unit.has_tape()) << "read with no tape mounted";
  const double locate = unit.LocateTo(position);
  counters_.locate_seconds += locate;
  const double read = unit.Read(config_.block_size_mb);
  counters_.read_seconds += read;
  ++counters_.blocks_read;
  counters_.mb_read += config_.block_size_mb;
  if (breakdown != nullptr) {
    breakdown->locate = locate;
    breakdown->read = read;
  }
  return locate + read;
}

double Jukebox::ChargeRobotRetries(int count) {
  TJ_CHECK_GE(count, 0);
  const double extra = count * model_.params().robot_seconds;
  counters_.switch_seconds += extra;
  robot_free_at_ += extra;
  return extra;
}

double Jukebox::Rewind() {
  Drive& unit = drive();
  TJ_CHECK(unit.has_tape()) << "rewind with no tape mounted";
  const double rewind = unit.Rewind();
  counters_.rewind_seconds += rewind;
  return rewind;
}

}  // namespace tapejuke
