// A tiny command-line flag parser for bench and example binaries.
//
// Supports --name=value and --name value forms plus boolean --name /
// --no-name. Unrecognized flags are an error so typos fail loudly.

#ifndef TAPEJUKE_UTIL_FLAGS_H_
#define TAPEJUKE_UTIL_FLAGS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "util/status.h"

namespace tapejuke {

/// Parses all of `text` as a finite double (strtod syntax). Fails, leaving
/// `*value` alone, on empty input, trailing characters, "nan", "inf" and
/// overflow.
bool ParseFiniteDouble(const std::string& text, double* value);

/// Parses all of `text` as a base-10 int64_t. Fails, leaving `*value`
/// alone, on empty input, trailing characters and overflow.
bool ParseInt64(const std::string& text, int64_t* value);

/// Declarative flag set: register flags bound to caller-owned storage, then
/// Parse(argc, argv).
class FlagSet {
 public:
  /// `program_summary` is shown by --help.
  explicit FlagSet(std::string program_summary);

  /// Registers flags. `help` is shown by --help; the bound pointer must
  /// outlive Parse and holds the default value on entry.
  void AddInt64(const std::string& name, int64_t* target,
                const std::string& help);
  void AddDouble(const std::string& name, double* target,
                 const std::string& help);
  void AddString(const std::string& name, std::string* target,
                 const std::string& help);
  void AddBool(const std::string& name, bool* target, const std::string& help);

  /// Registers a flag whose value `set` parses and stores, returning
  /// InvalidArgument for a value it refuses. `default_text` is shown by
  /// --help; a bool flag also takes the bare --name and --no-name forms.
  void Add(const std::string& name, const std::string& help,
           std::string default_text,
           std::function<Status(const std::string&)> set,
           bool is_bool = false);

  /// Parses argv. On --help prints usage and returns a NotFound status the
  /// caller should treat as "exit 0". Positional arguments are collected in
  /// positional().
  Status Parse(int argc, char** argv);

  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders the usage text (also printed by --help).
  std::string Usage() const;

 private:
  struct Flag {
    std::function<Status(const std::string&)> set;
    bool is_bool;
    std::string help;
    std::string default_text;
  };

  std::string summary_;
  std::string program_name_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace tapejuke

#endif  // TAPEJUKE_UTIL_FLAGS_H_
