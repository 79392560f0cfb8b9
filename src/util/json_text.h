// JSON text primitives: the one place that decides how a string, a
// number and an id list are written as JSON.
//
// Every JSON writer in the repo appends through these — JsonValue::Dump
// and JsonQuote (server/json.h), the streaming JsonlSink (core/sink.h),
// the server's result rows (server/session.h) and the counters object
// (core/statistics.h) — so a value renders to the same bytes whichever
// path writes it.

#ifndef SCPM_UTIL_JSON_TEXT_H_
#define SCPM_UTIL_JSON_TEXT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace scpm {

/// Appends `s` as a quoted JSON string: `"` and `\` backslash-escaped,
/// newline, carriage return and tab by their short escapes, every other
/// byte below 0x20 as \u00XX, and every other byte (UTF-8 included)
/// verbatim.
void AppendJsonString(std::string* out, std::string_view s);

/// Appends a number: an integer-valued double below 1e15 in magnitude
/// as a plain integer (ids, counts and byte sizes stay grep-able), any
/// other finite double as %.17g (parses back to the same bits), and NaN
/// or an infinity as null (JSON has neither).
void AppendJsonNumber(std::string* out, double value);

/// Appends `[id,id,...]` in the given order.
void AppendJsonIdArray(std::string* out, const std::vector<std::uint32_t>& ids);

}  // namespace scpm

#endif  // SCPM_UTIL_JSON_TEXT_H_
