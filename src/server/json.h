// Minimal JSON document model for the server's wire protocol.
//
// The query server speaks newline-delimited JSON (docs/SERVER.md); this
// is the small, dependency-free parser/printer behind it. It covers the
// whole of RFC 8259 except one deliberate simplification: \uXXXX escapes
// outside the ASCII range are passed through as their literal escape
// text rather than decoded to UTF-8 (attribute names and file paths on
// the wire are byte strings either way). Numbers are doubles — protocol
// counters stay below 2^53, the integer-exact range.
//
// Objects preserve no insertion order; Dump() emits keys sorted, so a
// serialized value is deterministic — tests and the docs-drift gate rely
// on that.

#ifndef SCPM_SERVER_JSON_H_
#define SCPM_SERVER_JSON_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace scpm {

class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : type_(Type::kNull) {}
  explicit JsonValue(bool b) : type_(Type::kBool), bool_(b) {}
  explicit JsonValue(double d) : type_(Type::kNumber), number_(d) {}
  explicit JsonValue(std::uint64_t u)
      : type_(Type::kNumber), number_(static_cast<double>(u)) {}
  explicit JsonValue(std::string s)
      : type_(Type::kString), string_(std::move(s)) {}
  explicit JsonValue(const char* s) : type_(Type::kString), string_(s) {}
  explicit JsonValue(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  explicit JsonValue(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  /// Parses exactly one JSON value; trailing non-whitespace is an error.
  static Result<JsonValue> Parse(std::string_view text);

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool AsBool() const { return bool_; }
  double AsNumber() const { return number_; }
  const std::string& AsString() const { return string_; }
  const Array& AsArray() const { return array_; }
  const Object& AsObject() const { return object_; }
  Array* MutableArray() { return &array_; }
  Object* MutableObject() { return &object_; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* Find(const std::string& key) const;

  /// Typed member accessors with defaults (protocol convenience).
  double NumberOr(const std::string& key, double fallback) const;
  std::string StringOr(const std::string& key,
                       const std::string& fallback) const;
  bool BoolOr(const std::string& key, bool fallback) const;

  /// Compact serialization (sorted keys, shortest round-trip numbers).
  std::string Dump() const;

  /// Convenience builders.
  static JsonValue MakeObject() { return JsonValue(Object{}); }
  static JsonValue MakeArray() { return JsonValue(Array{}); }
  void Set(const std::string& key, JsonValue value) {
    object_[key] = std::move(value);
  }

 private:
  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes a string for embedding in a JSON document (quotes included in
/// the output).
std::string JsonQuote(std::string_view s);

/// The wire rule for integer members: a whole number from 0 to `max`.
/// A non-number, a negative or fractional number, or one above `max` is
/// an invalid-argument naming `member`, never a wrapped or truncated
/// cast.
Result<std::uint64_t> JsonWholeNumber(const JsonValue& value,
                                      const std::string& member,
                                      std::uint64_t max);

}  // namespace scpm

#endif  // SCPM_SERVER_JSON_H_
