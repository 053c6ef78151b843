// The line-oriented `key value` text grammar of the TMSQ wire messages
// (serve/message, serve/handler) and the schedule cache's `.tmscache`
// files (driver/schedule_cache).
//
// A payload is '\n'-terminated lines. A line is a key, one space and a
// value that runs to the end of the line. Numbers follow one rule, the
// command line's (support/parse.hpp): the value is the whole number,
// digits with an optional leading '-', so "+5", " 5" and "5 " are
// refused. Ids and cache keys are exactly 16 lowercase hex digits.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "support/parse.hpp"

namespace tms::support {

/// Pops the next '\n'-terminated line (or the final unterminated tail)
/// from `rest`. False when `rest` is exhausted.
bool next_line(std::string_view& rest, std::string_view& line);

struct KeyValue {
  std::string_view key;
  std::string_view value;  ///< may itself contain spaces; empty without one
};

/// Splits a line at its first space.
KeyValue split_kv(std::string_view line);

/// Appends one "key value\n" line. Numbers are written in the form their
/// reader takes back: an integer in base 10, a double as "%.17g" (which
/// reads back as the same double), and a schedule's slot list as its
/// count and then each slot ("3 0 2 5").
void append_kv(std::string& out, std::string_view key, std::string_view value);
void append_kv(std::string& out, std::string_view key, double value);
void append_kv(std::string& out, std::string_view key, const std::vector<int>& slots);
template <typename T, typename = std::enable_if_t<std::is_integral_v<T>>>
void append_kv(std::string& out, std::string_view key, T value) {
  append_kv(out, key, std::string_view(std::to_string(value)));
}

/// `v` as exactly 16 lowercase hex digits.
std::string hex16(std::uint64_t v);
/// Reads exactly 16 lowercase hex digits into `out`; false, leaving
/// `out` alone, for anything else.
bool parse_hex16(std::string_view s, std::uint64_t& out);

/// Reads the double `s` spells into `out`, under parse_int's rule (the
/// whole of `s`, no '+' or whitespace) and in double's range; false,
/// leaving `out` alone, otherwise. Integers go through parse_int.
bool parse_double(std::string_view s, double& out);

/// Reads a slot list append_kv wrote into `out`. False, leaving `out`
/// alone, when a number breaks the rule, the count exceeds `max_count`
/// (checked before anything is allocated), or the slots listed are not
/// exactly that many.
bool parse_slots(std::string_view s, std::size_t max_count, std::vector<int>& out);

}  // namespace tms::support
