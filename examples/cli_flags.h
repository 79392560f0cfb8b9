// Strict numeric flag values shared by scpm_cli and scpm_serve_cli. A
// value is a number of the flag's kind or a usage error: never a silent
// 0 for junk, a negative wrapped to ~2^64, or an overflow.

#ifndef SCPM_EXAMPLES_CLI_FLAGS_H_
#define SCPM_EXAMPLES_CLI_FLAGS_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>

namespace scpm_cli {

/// Parses `value` as a decimal whole number in [0, max] into *out:
/// digits only, no sign, no blanks, nothing after them. On failure
/// prints why, naming `flag`, and returns false.
template <typename T>
bool ParseWhole(const std::string& flag, const char* value, T* out,
                std::uint64_t max = std::numeric_limits<T>::max()) {
  const char* end = value + std::strlen(value);
  std::uint64_t n = 0;
  const auto [ptr, ec] = std::from_chars(value, end, n);
  if (value == end || ec != std::errc() || ptr != end || n > max) {
    std::cerr << flag << " expects a whole number in [0, " << max
              << "], got '" << value << "'\n";
    return false;
  }
  *out = static_cast<T>(n);
  return true;
}

/// Parses `value` as a finite decimal number into *out, with nothing
/// after it. Range checks stay with the options' own validation.
inline bool ParseReal(const std::string& flag, const char* value,
                      double* out) {
  char* end = nullptr;
  const double d = std::strtod(value, &end);
  if (end == value || *end != '\0' || !std::isfinite(d)) {
    std::cerr << flag << " expects a number, got '" << value << "'\n";
    return false;
  }
  *out = d;
  return true;
}

}  // namespace scpm_cli

#endif  // SCPM_EXAMPLES_CLI_FLAGS_H_
