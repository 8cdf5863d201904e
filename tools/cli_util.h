// Shared flag-parsing helpers for the CLI tools.
#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

namespace hpcc::cli {

// Matches "--key=value" arguments: returns true and points *value at the
// text after '=' when `arg` starts with `key` immediately followed by '='.
inline bool ConsumeFlag(const char* arg, const char* key, const char** value) {
  const size_t n = std::strlen(key);
  if (std::strncmp(arg, key, n) == 0 && arg[n] == '=') {
    *value = arg + n + 1;
    return true;
  }
  return false;
}

// Parses all of `text`, the value of flag `flag`, as a T: a decimal integer
// for integral T, a finite number for floating-point T. Empty text, leading
// blanks, trailing characters, a sign on an unsigned flag, a value out of
// T's range and a non-finite value print an error naming the flag and the
// text, and exit 2.
template <typename T>
T ParseNumber(const char* flag, const char* text) {
  static_assert(std::is_arithmetic_v<T>);
  const char* what = std::is_floating_point_v<T> ? "a finite number"
                     : std::is_signed_v<T>       ? "an integer"
                                                 : "an unsigned integer";
  bool ok = *text != '\0' && !std::isspace(static_cast<unsigned char>(*text));
  if (std::is_unsigned_v<T> && (*text == '-' || *text == '+')) ok = false;
  char* end = nullptr;
  errno = 0;
  T value{};
  if constexpr (std::is_floating_point_v<T>) {
    const double v = std::strtod(text, &end);
    ok = ok && std::isfinite(v);
    value = static_cast<T>(v);
  } else if constexpr (std::is_signed_v<T>) {
    const long long v = std::strtoll(text, &end, 10);
    ok = ok && errno != ERANGE && v >= std::numeric_limits<T>::min() &&
         v <= std::numeric_limits<T>::max();
    value = static_cast<T>(v);
  } else {
    const unsigned long long v = std::strtoull(text, &end, 10);
    ok = ok && errno != ERANGE && v <= std::numeric_limits<T>::max();
    value = static_cast<T>(v);
  }
  if (!ok || end == text || *end != '\0') {
    std::fprintf(stderr, "error: %s=%s: expected %s\n", flag, text, what);
    std::exit(2);
  }
  return value;
}

}  // namespace hpcc::cli
