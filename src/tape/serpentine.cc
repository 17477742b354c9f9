#include "tape/serpentine.h"

#include <cmath>
#include <cstdlib>

#include "util/check.h"

namespace tapejuke {

std::vector<Field> SerpentineParams::Fields() {
  return {
      {"num_tracks", &num_tracks, AtLeast(1)},
      {"tape_capacity_mb", &tape_capacity_mb, AtLeast(1)},
      {"startup_seconds", &startup_seconds, AtLeast(0)},
      {"track_switch_seconds", &track_switch_seconds, AtLeast(0)},
      {"travel_per_mb", &travel_per_mb, AtLeast(0)},
      {"read_per_mb", &read_per_mb, Above(0)},
  };
}

Status SerpentineParams::Validate() const {
  TJ_RETURN_IF_ERROR(CheckFields(FieldsOf(*this)));
  if (tape_capacity_mb % num_tracks != 0) {
    return Status::InvalidArgument(
        "capacity must be divisible by the track count");
  }
  return Status::Ok();
}

SerpentineModel::SerpentineModel(const SerpentineParams& params)
    : params_(params) {
  const Status status = params.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
}

int32_t SerpentineModel::TrackOf(Position pos) const {
  TJ_CHECK(pos >= 0 && pos < params_.tape_capacity_mb);
  return static_cast<int32_t>(pos / TrackLengthMb());
}

int64_t SerpentineModel::LongitudinalOffset(Position pos) const {
  const int64_t track_len = TrackLengthMb();
  const int32_t track = TrackOf(pos);
  const int64_t within = pos - static_cast<int64_t>(track) * track_len;
  // Even tracks run head-to-tail; odd tracks run tail-to-head.
  return (track % 2 == 0) ? within : track_len - 1 - within;
}

double SerpentineModel::LocateTime(Position from, Position to) const {
  if (from == to) return 0.0;
  const int64_t longitudinal =
      std::llabs(LongitudinalOffset(to) - LongitudinalOffset(from));
  double time = params_.startup_seconds +
                params_.travel_per_mb * static_cast<double>(longitudinal);
  if (TrackOf(from) != TrackOf(to)) time += params_.track_switch_seconds;
  return time;
}

double SerpentineModel::ReadTime(int64_t mb) const {
  TJ_CHECK_GE(mb, 0);
  return params_.read_per_mb * static_cast<double>(mb);
}

double SerpentineModel::TourLocateSeconds(
    Position head, const std::vector<Position>& tour) const {
  double total = 0;
  for (const Position p : tour) {
    total += LocateTime(head, p);
    head = p;
  }
  return total;
}

std::vector<Position> SerpentineNearestNeighborTour(
    const SerpentineModel& model, Position head,
    std::vector<Position> positions) {
  std::vector<Position> tour;
  tour.reserve(positions.size());
  Position current = head;
  while (!positions.empty()) {
    size_t best = 0;
    double best_cost = model.LocateTime(current, positions[0]);
    for (size_t i = 1; i < positions.size(); ++i) {
      const double cost = model.LocateTime(current, positions[i]);
      if (cost < best_cost) {
        best_cost = cost;
        best = i;
      }
    }
    current = positions[best];
    tour.push_back(current);
    positions[best] = positions.back();
    positions.pop_back();
  }
  return tour;
}

}  // namespace tapejuke
