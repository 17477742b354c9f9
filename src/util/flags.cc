#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace tapejuke {

bool ParseFiniteDouble(const std::string& text, double* value) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  // strtod also accepts "nan" and "inf", and returns HUGE_VAL on overflow.
  if (end == text.c_str() || *end != '\0' || !std::isfinite(parsed)) {
    return false;
  }
  *value = parsed;
  return true;
}

FlagSet::FlagSet(std::string program_summary)
    : summary_(std::move(program_summary)) {}

void FlagSet::AddInt64(const std::string& name, int64_t* target,
                       const std::string& help) {
  flags_[name] = Flag{Kind::kInt64, target, help, std::to_string(*target)};
}

void FlagSet::AddDouble(const std::string& name, double* target,
                        const std::string& help) {
  std::ostringstream def;
  def << *target;
  flags_[name] = Flag{Kind::kDouble, target, help, def.str()};
}

void FlagSet::AddString(const std::string& name, std::string* target,
                        const std::string& help) {
  flags_[name] = Flag{Kind::kString, target, help, *target};
}

void FlagSet::AddBool(const std::string& name, bool* target,
                      const std::string& help) {
  flags_[name] = Flag{Kind::kBool, target, help, *target ? "true" : "false"};
}

Status FlagSet::SetValue(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    return Status::InvalidArgument("unknown flag --" + name);
  }
  Flag& flag = it->second;
  switch (flag.kind) {
    case Kind::kInt64: {
      char* end = nullptr;
      errno = 0;  // strtoll clamps an out-of-range value and sets ERANGE
      const long long parsed = std::strtoll(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a 64-bit integer, got '" +
                                       value + "'");
      }
      *static_cast<int64_t*>(flag.target) = parsed;
      return Status::Ok();
    }
    case Kind::kDouble:
      if (!ParseFiniteDouble(value, static_cast<double*>(flag.target))) {
        return Status::InvalidArgument("flag --" + name +
                                       " expects a finite number, got '" +
                                       value + "'");
      }
      return Status::Ok();
    case Kind::kString:
      *static_cast<std::string*>(flag.target) = value;
      return Status::Ok();
    case Kind::kBool: {
      if (value == "true" || value == "1") {
        *static_cast<bool*>(flag.target) = true;
      } else if (value == "false" || value == "0") {
        *static_cast<bool*>(flag.target) = false;
      } else {
        return Status::InvalidArgument("flag --" + name +
                                       " expects true/false, got '" + value +
                                       "'");
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable flag kind");
}

Status FlagSet::Parse(int argc, char** argv) {
  program_name_ = argc > 0 ? argv[0] : "program";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << Usage();
      return Status::NotFound("help requested");
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      TJ_RETURN_IF_ERROR(SetValue(body.substr(0, eq), body.substr(eq + 1)));
      continue;
    }
    // --flag value, or bare boolean --flag / --no-flag.
    auto it = flags_.find(body);
    if (it != flags_.end() && it->second.kind == Kind::kBool) {
      *static_cast<bool*>(it->second.target) = true;
      continue;
    }
    if (body.rfind("no-", 0) == 0) {
      auto neg = flags_.find(body.substr(3));
      if (neg != flags_.end() && neg->second.kind == Kind::kBool) {
        *static_cast<bool*>(neg->second.target) = false;
        continue;
      }
    }
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + body + " expects a value");
    }
    TJ_RETURN_IF_ERROR(SetValue(body, argv[++i]));
  }
  return Status::Ok();
}

std::string FlagSet::Usage() const {
  std::ostringstream out;
  out << summary_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name << "  (default " << flag.default_text << ")\n      "
        << flag.help << "\n";
  }
  return out.str();
}

}  // namespace tapejuke
