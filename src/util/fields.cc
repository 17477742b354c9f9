#include "util/fields.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <utility>

#include "util/check.h"

namespace tapejuke {

namespace {

bool InDomain(const Domain& d, double v) {
  return (d.lo_open ? v > d.lo : v >= d.lo) &&
         (d.hi_open ? v < d.hi : v <= d.hi);
}

template <typename T>
std::string Text(T value) {
  if constexpr (std::is_floating_point_v<T>) {
    if (std::isnan(value)) return "nan";
    if (std::isinf(value)) return value > 0 ? "inf" : "-inf";
    return JsonDouble(value);
  } else {
    return std::to_string(value);
  }
}

// "in [0, 1)" or ">= 0 (finite)"; "in [1, 2147483647]" for an int32_t.
template <typename T>
std::string DomainText(const Domain& d) {
  std::string text;
  if constexpr (std::is_integral_v<T>) {
    using Limits = std::numeric_limits<T>;
    text = "in [";
    text += std::isfinite(d.lo) ? Text(static_cast<int64_t>(d.lo))
                                : Text(Limits::min());
    text += ", ";
    text += std::isfinite(d.hi) ? Text(static_cast<int64_t>(d.hi))
                                : Text(Limits::max());
    text += "]";
  } else if (std::isfinite(d.hi)) {
    text = d.lo_open ? "in (" : "in [";
    text += Text(d.lo);
    text += ", ";
    text += Text(d.hi);
    text += d.hi_open ? ")" : "]";
  } else {
    text = d.lo_open ? "> " : ">= ";
    text += Text(d.lo);
    text += " (finite)";
  }
  return text;
}

Status Refuse(const Field& row, const std::string& domain,
              const std::string& got) {
  std::string message = row.what != nullptr ? row.what : row.key;
  message += " must be ";
  message += domain;
  message += ", got ";
  message += got;
  return Status::InvalidArgument(message);
}

template <typename T>
Status Check(const Field& row, T value) {
  const auto v = static_cast<double>(value);
  if ((std::is_integral_v<T> || std::isfinite(v)) && InDomain(row.domain, v)) {
    return Status::Ok();
  }
  return Refuse(row, DomainText<T>(row.domain), Text(value));
}

// Parses all of `text` as a T, refusing a value T cannot hold.
template <typename T>
bool Parse(const std::string& text, T* value) {
  if constexpr (std::is_floating_point_v<T>) {
    return ParseFiniteDouble(text, value);
  } else if constexpr (std::is_unsigned_v<T>) {
    char* end = nullptr;
    errno = 0;  // strtoull clamps an out-of-range value and sets ERANGE
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (text.find('-') != std::string::npos || end == text.c_str() ||
        *end != '\0' || errno == ERANGE) {
      return false;
    }
    *value = parsed;
    return true;
  } else {
    int64_t parsed = 0;
    if (!ParseInt64(text, &parsed) || !std::in_range<T>(parsed)) return false;
    *value = static_cast<T>(parsed);
    return true;
  }
}

const char* NameOf(const EnumRef& ref) {
  return ref.names[static_cast<size_t>(ref.get(ref.member))];
}

// Sets a non-bool row from flag text, storing only a value in its domain.
Status SetFromText(const Field& row, const std::string& text) {
  std::string got = "'";
  got += text;
  got += "'";
  const Status status = std::visit(
      [&](const auto& ref) -> Status {
        using R = std::decay_t<decltype(ref)>;
        if constexpr (std::is_same_v<R, EnumRef>) {
          const int index = NameIndex(ref.names, text);
          if (index >= 0) {
            ref.set(ref.member, index);
            return Status::Ok();
          }
          std::string names;
          for (const char* name : ref.names) {
            names += names.empty() ? "one of " : "|";
            names += name;
          }
          return Refuse(row, names, got);
        } else if constexpr (std::is_pointer_v<R> &&
                             !std::is_same_v<R, bool*>) {
          using T = std::remove_pointer_t<R>;
          T value{};
          if (!Parse(text, &value)) {
            return Refuse(row, DomainText<T>(row.domain), got);
          }
          TJ_RETURN_IF_ERROR(Check(row, value));
          *ref = value;
          return Status::Ok();
        } else {
          TJ_CHECK(false) << row.key << " has no member to set";
          return Status::Ok();
        }
      },
      row.ref);
  if (status.ok()) return status;
  std::string message = "flag --";
  message += row.flag.name;
  message += ": ";
  message += status.message();
  return Status::InvalidArgument(message);
}

}  // namespace

int NameIndex(std::span<const char* const> names, std::string_view name) {
  for (size_t i = 0; i < names.size(); ++i) {
    if (name == names[i]) return static_cast<int>(i);
  }
  return -1;
}

Status CheckFields(const std::vector<Field>& rows) {
  for (const Field& row : rows) {
    TJ_RETURN_IF_ERROR(std::visit(
        [&row](const auto& ref) -> Status {
          using R = std::decay_t<decltype(ref)>;
          if constexpr (std::is_pointer_v<R>) {
            return Check(row, *ref);
          } else if constexpr (std::is_same_v<R, EnumRef>) {
            const int index = ref.get(ref.member);
            return index >= 0 && std::cmp_less(index, ref.names.size())
                       ? Status::Ok()
                       : Refuse(row, "a named value", Text(index));
          } else if constexpr (std::is_same_v<R, ListRef>) {
            return ref.check(ref.list);
          } else {
            return Status::Ok();
          }
        },
        row.ref));
  }
  return Status::Ok();
}

void WriteFields(JsonWriter* w, const std::vector<Field>& rows) {
  for (const Field& row : rows) {
    if (!row.written) continue;
    w->Key(row.key);
    std::visit(
        [w](const auto& ref) {
          using R = std::decay_t<decltype(ref)>;
          if constexpr (std::is_pointer_v<R>) {
            w->Value(*ref);
          } else if constexpr (std::is_same_v<R, EnumRef>) {
            w->Value(NameOf(ref));
          } else if constexpr (std::is_same_v<R, ListRef>) {
            ref.write(w, ref.list);
          } else {
            std::visit([w](auto value) { w->Value(value); }, ref);
          }
        },
        row.ref);
  }
}

void WriteObject(JsonWriter* w, const std::vector<Field>& rows) {
  w->BeginObject();
  WriteFields(w, rows);
  w->EndObject();
}

void BindFlags(FlagSet* flags, const std::vector<Field>& rows) {
  for (const Field& row : rows) {
    if (row.flag.name == nullptr) continue;
    if (bool* const* member = std::get_if<bool*>(&row.ref)) {
      flags->AddBool(row.flag.name, *member, row.flag.help);
      continue;
    }
    const std::string shown = std::visit(
        [](const auto& ref) -> std::string {
          using R = std::decay_t<decltype(ref)>;
          if constexpr (std::is_pointer_v<R>) {
            return Text(*ref);
          } else if constexpr (std::is_same_v<R, EnumRef>) {
            return NameOf(ref);
          } else {
            return "";
          }
        },
        row.ref);
    flags->Add(row.flag.name, row.flag.help, shown,
               [row](const std::string& text) {
                 return SetFromText(row, text);
               });
  }
}

}  // namespace tapejuke
