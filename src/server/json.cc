#include "server/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace scpm {

namespace {

/// Recursive-descent parser over a string_view with an explicit cursor.
/// Depth is capped so a hostile "[[[[..." line fails cleanly instead of
/// overflowing the stack.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<JsonValue> Run() {
    JsonValue value;
    SCPM_RETURN_IF_ERROR(ParseValue(&value, 0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing characters after JSON value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("json: " + what + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"': {
        std::string s;
        SCPM_RETURN_IF_ERROR(ParseString(&s));
        *out = JsonValue(std::move(s));
        return Status::OK();
      }
      case 't':
        if (ConsumeWord("true")) {
          *out = JsonValue(true);
          return Status::OK();
        }
        return Error("bad literal");
      case 'f':
        if (ConsumeWord("false")) {
          *out = JsonValue(false);
          return Status::OK();
        }
        return Error("bad literal");
      case 'n':
        if (ConsumeWord("null")) {
          *out = JsonValue();
          return Status::OK();
        }
        return Error("bad literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    JsonValue::Object object;
    SkipWhitespace();
    if (Consume('}')) {
      *out = JsonValue(std::move(object));
      return Status::OK();
    }
    while (true) {
      SkipWhitespace();
      std::string key;
      SCPM_RETURN_IF_ERROR(ParseString(&key));
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      JsonValue value;
      SCPM_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      object[std::move(key)] = std::move(value);
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) break;
      return Error("expected ',' or '}'");
    }
    *out = JsonValue(std::move(object));
    return Status::OK();
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    JsonValue::Array array;
    SkipWhitespace();
    if (Consume(']')) {
      *out = JsonValue(std::move(array));
      return Status::OK();
    }
    while (true) {
      JsonValue value;
      SCPM_RETURN_IF_ERROR(ParseValue(&value, depth + 1));
      array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) break;
      return Error("expected ',' or ']'");
    }
    *out = JsonValue(std::move(array));
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (!Consume('"')) return Error("expected string");
    out->clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("unescaped control character in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out->push_back('"');
          break;
        case '\\':
          out->push_back('\\');
          break;
        case '/':
          out->push_back('/');
          break;
        case 'b':
          out->push_back('\b');
          break;
        case 'f':
          out->push_back('\f');
          break;
        case 'n':
          out->push_back('\n');
          break;
        case 'r':
          out->push_back('\r');
          break;
        case 't':
          out->push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + i];
            if (!std::isxdigit(static_cast<unsigned char>(h))) {
              return Error("bad \\u escape");
            }
            code = code * 16 +
                   (std::isdigit(static_cast<unsigned char>(h))
                        ? static_cast<unsigned>(h - '0')
                        : static_cast<unsigned>(
                              std::tolower(static_cast<unsigned char>(h)) -
                              'a' + 10));
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else {
            // Non-ASCII escapes pass through verbatim (see file comment
            // in the header).
            out->append(text_.substr(pos_ - 2, 6));
          }
          pos_ += 4;
          break;
        }
        default:
          return Error("bad escape");
      }
    }
    return Error("unterminated string");
  }

  Status ParseNumber(JsonValue* out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double value = 0.0;
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc{} || ptr != last || first == last) {
      return Error("bad number");
    }
    *out = JsonValue(value);
    return Status::OK();
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void DumpTo(const JsonValue& value, std::string* out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      *out += "null";
      return;
    case JsonValue::Type::kBool:
      *out += value.AsBool() ? "true" : "false";
      return;
    case JsonValue::Type::kNumber: {
      const double d = value.AsNumber();
      if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
        // Integer-valued numbers print without a fraction: ids, counts,
        // and byte sizes stay grep-able on the wire.
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(d));
        *out += buf;
      } else if (std::isfinite(d)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        *out += buf;
      } else {
        *out += "null";  // JSON has no inf/nan
      }
      return;
    }
    case JsonValue::Type::kString:
      *out += JsonQuote(value.AsString());
      return;
    case JsonValue::Type::kArray: {
      *out += '[';
      bool first = true;
      for (const JsonValue& element : value.AsArray()) {
        if (!first) *out += ',';
        first = false;
        DumpTo(element, out);
      }
      *out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      *out += '{';
      bool first = true;
      for (const auto& [key, element] : value.AsObject()) {
        if (!first) *out += ',';
        first = false;
        *out += JsonQuote(key);
        *out += ':';
        DumpTo(element, out);
      }
      *out += '}';
      return;
    }
  }
}

}  // namespace

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  return Parser(text).Run();
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (!is_object()) return nullptr;
  auto it = object_.find(key);
  return it == object_.end() ? nullptr : &it->second;
}

double JsonValue::NumberOr(const std::string& key, double fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_number() ? v->AsNumber() : fallback;
}

std::string JsonValue::StringOr(const std::string& key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_string() ? v->AsString() : fallback;
}

bool JsonValue::BoolOr(const std::string& key, bool fallback) const {
  const JsonValue* v = Find(key);
  return v != nullptr && v->is_bool() ? v->AsBool() : fallback;
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

Result<std::uint64_t> JsonWholeNumber(const JsonValue& value,
                                      const std::string& member,
                                      std::uint64_t max) {
  const double d = value.AsNumber();
  // 2^64 is exact in a double; below it the cast cannot overflow.
  if (value.is_number() && d >= 0.0 && d < 0x1p64 && d == std::floor(d)) {
    const auto n = static_cast<std::uint64_t>(d);
    if (n <= max) return n;
  }
  return Status::InvalidArgument(member + " must be a whole number from 0 to " +
                                 std::to_string(max));
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace scpm
