#include "tape/timing_model.h"

#include "util/check.h"

namespace tapejuke {

TimingParams TimingParams::FastDrive() {
  TimingParams p;
  p.fwd_short_startup /= 4;
  p.fwd_short_per_mb /= 4;
  p.fwd_long_startup /= 4;
  p.fwd_long_per_mb /= 4;
  p.rev_short_startup /= 4;
  p.rev_short_per_mb /= 4;
  p.rev_long_startup /= 4;
  p.rev_long_per_mb /= 4;
  p.bot_extra_seconds /= 4;
  p.read_fwd_startup /= 4;
  p.read_per_mb /= 4;
  p.eject_seconds /= 4;
  p.robot_seconds /= 4;
  p.load_seconds /= 4;
  return p;
}

std::vector<Field> TimingParams::Fields() {
  return {
      {"fwd_short_startup", &fwd_short_startup, AtLeast(0), {}, false},
      {"fwd_short_per_mb", &fwd_short_per_mb, AtLeast(0), {}, false},
      {"fwd_long_startup", &fwd_long_startup, AtLeast(0), {}, false},
      {"fwd_long_per_mb", &fwd_long_per_mb, AtLeast(0), {}, false},
      {"rev_short_startup", &rev_short_startup, AtLeast(0), {}, false},
      {"rev_short_per_mb", &rev_short_per_mb, AtLeast(0), {}, false},
      {"rev_long_startup", &rev_long_startup, AtLeast(0), {}, false},
      {"rev_long_per_mb", &rev_long_per_mb, AtLeast(0), {}, false},
      {"short_threshold_mb", &short_threshold_mb, AtLeast(0), {}, false},
      {"bot_extra_seconds", &bot_extra_seconds, AtLeast(0), {}, false},
      {"read_fwd_startup", &read_fwd_startup, AtLeast(0), {}, false},
      {"read_rev_startup", &read_rev_startup, AtLeast(0), {}, false},
      {"read_per_mb", &read_per_mb, Above(0), {}, false},
      {"eject_seconds", &eject_seconds, AtLeast(0), {}, false},
      {"robot_seconds", &robot_seconds, AtLeast(0), {}, false},
      {"load_seconds", &load_seconds, AtLeast(0), {}, false},
      {"tape_capacity_mb", &tape_capacity_mb, AtLeast(1),
       {"capacity-mb", "per-tape capacity, MB"}},
  };
}

Status TimingParams::Validate() const { return CheckFields(FieldsOf(*this)); }

TimingModel::TimingModel(const TimingParams& params) : params_(params) {
  const Status status = params.Validate();
  TJ_CHECK(status.ok()) << status.ToString();
}

}  // namespace tapejuke
