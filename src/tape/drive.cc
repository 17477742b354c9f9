#include "tape/drive.h"

#include "util/check.h"

namespace tapejuke {

Drive::Drive(const TimingModel* model) : model_(model) {
  TJ_CHECK(model != nullptr);
}

double Drive::LocateTo(Position position) {
  TJ_CHECK(has_tape()) << "locate with no tape mounted";
  TJ_CHECK_GE(position, 0);
  const double seconds = model_->LocateTime(head_, position);
  if (position > head_) {
    last_locate_ = LocateKind::kForward;
  } else if (position < head_) {
    last_locate_ = LocateKind::kReverse;
  }
  // Equal position: keep last_locate_ unchanged only if nothing read since;
  // a zero-distance "locate" does not reposition the head.
  head_ = position;
  return seconds;
}

double Drive::Read(int64_t mb) {
  TJ_CHECK(has_tape()) << "read with no tape mounted";
  TJ_CHECK_GE(mb, 0);
  const double seconds = model_->ReadTime(mb, last_locate_);
  head_ += mb;
  last_locate_ = LocateKind::kNone;  // subsequent contiguous reads stream
  return seconds;
}

double Drive::Rewind() {
  TJ_CHECK(has_tape()) << "rewind with no tape mounted";
  const double seconds = model_->RewindTime(head_);
  head_ = 0;
  last_locate_ = LocateKind::kReverse;
  return seconds;
}

double Drive::Eject() {
  TJ_CHECK(has_tape()) << "eject with no tape mounted";
  TJ_CHECK_EQ(head_, 0) << "tape must be rewound before eject";
  loaded_tape_ = kInvalidTape;
  last_locate_ = LocateKind::kNone;
  return model_->params().eject_seconds;
}

double Drive::Load(TapeId tape) {
  TJ_CHECK(!has_tape()) << "load into an occupied drive";
  TJ_CHECK_GE(tape, 0);
  loaded_tape_ = tape;
  head_ = 0;
  last_locate_ = LocateKind::kNone;
  return model_->params().load_seconds;
}

}  // namespace tapejuke
