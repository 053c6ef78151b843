// Strict integer parsing for command-line flags and machine knobs.
//
// std::atoi and friends turn "abc" into 0 and "12x" into 12 without a
// word; these helpers accept a value only when all of it is one base-10
// integer in the target type's range.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>

namespace tms::support {

/// The integer `text` spells, or nullopt when it is empty, carries
/// anything besides the digits (and a leading '-' for a signed T), or
/// lies outside T's range.
template <typename T>
std::optional<T> parse_int(std::string_view text) {
  T value{};
  const char* last = text.data() + text.size();
  const auto [end, ec] = std::from_chars(text.data(), last, value);
  if (text.empty() || ec != std::errc() || end != last) return std::nullopt;
  return value;
}

/// Stores the integer value of `flag` into `out`. Returns a one-line
/// error, e.g. "--simulate: 'abc' is not an integer", and leaves `out`
/// alone when parse_int rejects the value.
template <typename T>
std::optional<std::string> parse_int_flag(std::string_view flag, std::string_view value,
                                          T& out) {
  const std::optional<T> v = parse_int<T>(value);
  if (!v.has_value()) {
    return std::string(flag) + ": '" + std::string(value) + "' is not an integer";
  }
  out = *v;
  return std::nullopt;
}

/// Splits "HOST:PORT" at its last ':' into `host` and `port`. False,
/// leaving both alone, when there is no ':' or the port is not an
/// integer.
inline bool parse_host_port(std::string_view text, std::string& host, int& port) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos) return false;
  const std::optional<int> p = parse_int<int>(text.substr(colon + 1));
  if (!p.has_value()) return false;
  host = std::string(text.substr(0, colon));
  port = *p;
  return true;
}

}  // namespace tms::support
