// Config field tables: each settable config value declared once.
//
// Every config struct has `std::vector<Field> Fields()`: one row per field,
// in results-JSON key order, with the key, a pointer to the member, its
// domain and, for a field with a command-line flag, the flag's name and
// help. Three consumers walk the rows: CheckFields (the per-field half of
// every Validate; rules that join fields stay hand-written after it),
// WriteFields (the results-JSON config writers) and BindFlags (the bench
// and example flags). Rows point into the object Fields() was called on,
// so they are built per call, at validation, output and flag-parse time.

#ifndef TAPEJUKE_UTIL_FIELDS_H_
#define TAPEJUKE_UTIL_FIELDS_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "util/flags.h"
#include "util/json.h"
#include "util/status.h"

namespace tapejuke {

/// Legal values of a numeric field: an interval with open or closed ends.
/// A double must also be finite, so NaN and +-inf always fail. Integer
/// domains are closed and further bounded by the member's type.
struct Domain {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};

constexpr Domain AtLeast(double lo) { return {.lo = lo}; }
constexpr Domain Above(double lo) { return {.lo = lo, .lo_open = true}; }
constexpr Domain Closed(double lo, double hi) { return {lo, hi}; }
constexpr Domain ClosedOpen(double lo, double hi) {
  return {.lo = lo, .hi = hi, .hi_open = true};
}
constexpr Domain OpenClosed(double lo, double hi) {
  return {.lo = lo, .hi = hi, .lo_open = true};
}

/// An enum member, written and parsed by name: value i is names[i].
struct EnumRef {
  void* member;
  std::span<const char* const> names;
  int (*get)(const void* member);
  void (*set)(void* member, int index);
};

/// The index of `name` in `names`, or -1.
int NameIndex(std::span<const char* const> names, std::string_view name);

template <typename E, size_t N>
EnumRef Enum(E* member, const char* const (&names)[N]) {
  return {member, names,
          [](const void* m) {
            return static_cast<int>(*static_cast<const E*>(m));
          },
          [](void* m, int i) { *static_cast<E*>(m) = static_cast<E>(i); }};
}

/// A list of structs with tables of their own, checked and written one
/// element at a time (see List below).
struct ListRef {
  void* list;
  Status (*check)(void* list);
  void (*write)(JsonWriter* w, void* list);
};

/// A results-JSON value with no member behind it: a constant kept for
/// byte identity with earlier output.
using Fixed = std::variant<double, uint64_t, const char*>;

using FieldRef = std::variant<double*, int32_t*, int64_t*, uint64_t*, bool*,
                              EnumRef, ListRef, Fixed>;

/// A command-line flag: its name (without "--") and help text.
struct FlagSpec {
  const char* name = nullptr;
  const char* help = nullptr;
};

/// One row of a config struct's table.
struct Field {
  /// The results-JSON key; also names the field in error text.
  const char* key;
  FieldRef ref;
  Domain domain = {};
  FlagSpec flag = {};
  /// False for a row the results JSON leaves out.
  bool written = true;
  /// Error-text name, where it reads better than the key.
  const char* what = nullptr;
};

/// The rows of a const config, for the walks that only read them.
template <typename T>
std::vector<Field> FieldsOf(const T& config) {
  return const_cast<T&>(config).Fields();
}

/// InvalidArgument naming the first row whose value is outside its domain.
Status CheckFields(const std::vector<Field>& rows);

/// Emits the written rows as key/value pairs into the open object.
void WriteFields(JsonWriter* w, const std::vector<Field>& rows);

/// The written rows as one JSON object.
void WriteObject(JsonWriter* w, const std::vector<Field>& rows);

/// Registers each row's flag. A flag parses its value as the member's type
/// and refuses one outside the row's domain, before any narrowing, leaving
/// the member alone. The rows' object must outlive FlagSet::Parse.
void BindFlags(FlagSet* flags, const std::vector<Field>& rows);

template <typename T>
ListRef List(std::vector<T>* list) {
  return {list,
          [](void* l) {
            for (T& item : *static_cast<std::vector<T>*>(l)) {
              TJ_RETURN_IF_ERROR(CheckFields(item.Fields()));
            }
            return Status::Ok();
          },
          [](JsonWriter* w, void* l) {
            w->BeginArray();
            for (T& item : *static_cast<std::vector<T>*>(l)) {
              WriteObject(w, item.Fields());
            }
            w->EndArray();
          }};
}

}  // namespace tapejuke

#endif  // TAPEJUKE_UTIL_FIELDS_H_
