#include "support/line_codec.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <system_error>
#include <utility>

namespace tms::support {

bool next_line(std::string_view& rest, std::string_view& line) {
  if (rest.empty()) return false;
  const std::size_t nl = rest.find('\n');
  if (nl == std::string_view::npos) {
    line = rest;
    rest = {};
  } else {
    line = rest.substr(0, nl);
    rest = rest.substr(nl + 1);
  }
  return true;
}

KeyValue split_kv(std::string_view line) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) return {line, {}};
  return {line.substr(0, sp), line.substr(sp + 1)};
}

void append_kv(std::string& out, std::string_view key, std::string_view value) {
  out += key;
  out += ' ';
  out += value;
  out += '\n';
}

void append_kv(std::string& out, std::string_view key, double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  append_kv(out, key, std::string_view(buf));
}

void append_kv(std::string& out, std::string_view key, const std::vector<int>& slots) {
  out += key;
  out += ' ';
  out += std::to_string(slots.size());
  for (const int s : slots) {
    out += ' ';
    out += std::to_string(s);
  }
  out += '\n';
}

std::string hex16(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[static_cast<std::size_t>(i)] = kDigits[v & 0xf];
  return out;
}

bool parse_hex16(std::string_view s, std::uint64_t& out) {
  // from_chars would take uppercase digits too; the one form is lowercase.
  const auto lower_hex = [](char c) { return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'); };
  if (s.size() != 16 || !std::all_of(s.begin(), s.end(), lower_hex)) return false;
  std::from_chars(s.data(), s.data() + s.size(), out, 16);
  return true;
}

bool parse_double(std::string_view s, double& out) {
  double v = 0.0;
  const char* last = s.data() + s.size();
  const auto [end, ec] = std::from_chars(s.data(), last, v);
  if (s.empty() || ec != std::errc() || end != last) return false;
  out = v;
  return true;
}

bool parse_slots(std::string_view s, std::size_t max_count, std::vector<int>& out) {
  std::size_t sp = s.find(' ');
  std::size_t n = 0;
  if (!parse_int(s.substr(0, sp), n) || n > max_count) return false;
  std::vector<int> slots;
  slots.reserve(std::min(n, s.size() / 2));  // each slot costs at least " d"
  while (sp != std::string_view::npos) {
    s.remove_prefix(sp + 1);
    sp = s.find(' ');
    int slot = 0;
    if (!parse_int(s.substr(0, sp), slot) || slots.size() == n) return false;
    slots.push_back(slot);
  }
  if (slots.size() != n) return false;
  out = std::move(slots);
  return true;
}

}  // namespace tms::support
