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

bool ParseInt64(const std::string& text, int64_t* value) {
  char* end = nullptr;
  errno = 0;  // strtoll clamps an out-of-range value and sets ERANGE
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) return false;
  *value = parsed;
  return true;
}

namespace {

Status Expects(const std::string& name, const char* what,
               const std::string& value) {
  return Status::InvalidArgument("flag --" + name + " expects " + what +
                                 ", got '" + value + "'");
}

}  // namespace

FlagSet::FlagSet(std::string program_summary)
    : summary_(std::move(program_summary)) {}

void FlagSet::Add(const std::string& name, const std::string& help,
                  std::string default_text,
                  std::function<Status(const std::string&)> set,
                  bool is_bool) {
  flags_[name] = Flag{std::move(set), is_bool, help, std::move(default_text)};
}

void FlagSet::AddInt64(const std::string& name, int64_t* target,
                       const std::string& help) {
  Add(name, help, std::to_string(*target),
      [name, target](const std::string& value) {
        return ParseInt64(value, target)
                   ? Status::Ok()
                   : Expects(name, "a 64-bit integer", value);
      });
}

void FlagSet::AddDouble(const std::string& name, double* target,
                        const std::string& help) {
  std::ostringstream def;
  def << *target;
  Add(name, help, def.str(), [name, target](const std::string& value) {
    return ParseFiniteDouble(value, target)
               ? Status::Ok()
               : Expects(name, "a finite number", value);
  });
}

void FlagSet::AddString(const std::string& name, std::string* target,
                        const std::string& help) {
  Add(name, help, *target, [target](const std::string& value) {
    *target = value;
    return Status::Ok();
  });
}

void FlagSet::AddBool(const std::string& name, bool* target,
                      const std::string& help) {
  Add(
      name, help, *target ? "true" : "false",
      [name, target](const std::string& value) {
        if (value == "true" || value == "1") {
          *target = true;
        } else if (value == "false" || value == "0") {
          *target = false;
        } else {
          return Expects(name, "true/false", value);
        }
        return Status::Ok();
      },
      /*is_bool=*/true);
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
      const auto named = flags_.find(body.substr(0, eq));
      if (named == flags_.end()) {
        return Status::InvalidArgument("unknown flag --" + body.substr(0, eq));
      }
      TJ_RETURN_IF_ERROR(named->second.set(body.substr(eq + 1)));
      continue;
    }
    // --flag value, or bare boolean --flag / --no-flag.
    auto it = flags_.find(body);
    if (it != flags_.end() && it->second.is_bool) {
      TJ_RETURN_IF_ERROR(it->second.set("true"));
      continue;
    }
    if (body.rfind("no-", 0) == 0) {
      auto neg = flags_.find(body.substr(3));
      if (neg != flags_.end() && neg->second.is_bool) {
        TJ_RETURN_IF_ERROR(neg->second.set("false"));
        continue;
      }
    }
    if (it == flags_.end()) {
      return Status::InvalidArgument("unknown flag --" + body);
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument("flag --" + body + " expects a value");
    }
    TJ_RETURN_IF_ERROR(it->second.set(argv[++i]));
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
