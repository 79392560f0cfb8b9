#include "util/json_text.h"

#include <charconv>
#include <cmath>

namespace scpm {

void AppendJsonString(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  *out += '"';
  std::size_t run = 0;  // start of the pending verbatim run
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s, run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        *out += "\\u00";
        *out += kHex[c >> 4];
        *out += kHex[c & 0xf];
    }
  }
  out->append(s, run, s.size() - run);
  *out += '"';
}

void AppendJsonNumber(std::string* out, double value) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  char buf[32];
  std::to_chars_result r;
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(value));
  } else {
    // Specified as printf's "%.17g" in the C locale.
    r = std::to_chars(buf, buf + sizeof(buf), value,
                      std::chars_format::general, 17);
  }
  out->append(buf, r.ptr);
}

void AppendJsonIdArray(std::string* out,
                       const std::vector<std::uint32_t>& ids) {
  *out += '[';
  char buf[16];
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (i != 0) *out += ',';
    const auto r = std::to_chars(buf, buf + sizeof(buf), ids[i]);
    out->append(buf, r.ptr);
  }
  *out += ']';
}

}  // namespace scpm
