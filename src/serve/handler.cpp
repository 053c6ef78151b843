#include "serve/handler.hpp"

#include "obs/counters.hpp"
#include "support/json.hpp"
#include "support/line_codec.hpp"

namespace tms::serve {

namespace {

constexpr std::string_view kPeekHeader = "tmsq-peek-v1";
constexpr std::string_view kPeekReplyHeader = "tmsq-peek-reply-v1";

}  // namespace

Handler::~Handler() = default;

std::string Handler::peek_reply(std::string_view /*payload*/) {
  return serialise_peek_reply(std::nullopt);
}

std::string Handler::cluster_stats_json() const {
  // Degenerate one-shard cluster: the verb answers with the same schema
  // whether it reaches a router or a lone daemon, so tmstop --cluster
  // can be pointed at either.
  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "cluster-stats-v1");
  w.member("source", "single");
  w.member("draining", false);
  w.member("shards_total", 1);
  w.member("shards_ok", 1);
  w.key("shards").begin_array();
  w.begin_object();
  w.member("address", "self");
  w.member("healthy", true);
  w.member("ok", true);
  w.key("stats").raw_value(stats_json());
  w.end_object();
  w.end_array();
  w.key("aggregate");
  obs::write_counters_json(w, obs::counters_snapshot());
  w.end_object();
  return w.str();
}

std::string Handler::flight_json() const {
  // Well-formed empty dump for handlers without a flight recorder.
  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "tmsd-flight-v1");
  w.member("capacity", 0);
  w.member("recorded", 0);
  w.member("dropped", 0);
  w.key("records").begin_array().end_array();
  w.end_object();
  return w.str();
}

std::string serialise_peek(const PeekQuery& q) {
  std::string out(kPeekHeader);
  out += '\n';
  support::append_kv(out, "key", support::hex16(q.key));
  support::append_kv(out, "instrs", q.expect_instrs);
  return out;
}

std::variant<PeekQuery, std::string> parse_peek(std::string_view payload) {
  std::string_view rest = payload;
  std::string_view line;
  if (!support::next_line(rest, line) || line != kPeekHeader) {
    return std::string("bad peek header");
  }
  PeekQuery q;
  bool have_key = false;
  bool have_instrs = false;
  while (support::next_line(rest, line)) {
    if (line.empty()) continue;  // tolerate the trailing newline
    const auto [key, value] = support::split_kv(line);
    if (key == "key") {
      if (!support::parse_hex16(value, q.key)) return std::string("bad key");
      have_key = true;
    } else if (key == "instrs") {
      // Capped like the reply's slot list, which could not carry more.
      if (!support::parse_int(value, q.expect_instrs) || q.expect_instrs < 1 ||
          static_cast<std::size_t>(q.expect_instrs) > kMaxWireSlots) {
        return std::string("bad instrs");
      }
      have_instrs = true;
    } else {
      return "unknown peek field '" + std::string(key) + "'";
    }
  }
  if (!have_key || !have_instrs) return std::string("truncated peek");
  return q;
}

std::string serialise_peek_reply(const std::optional<driver::ScheduleCache::Entry>& entry) {
  std::string out(kPeekReplyHeader);
  if (!entry.has_value()) {
    out += "\nstatus miss\nend\n";
    return out;
  }
  out += "\nstatus hit\n";
  driver::append_entry_text(out, *entry);
  return out;
}

std::variant<std::optional<driver::ScheduleCache::Entry>, std::string> parse_peek_reply(
    std::string_view payload) {
  std::string_view rest = payload;
  std::string_view line;
  if (!support::next_line(rest, line) || line != kPeekReplyHeader) {
    return std::string("bad peek-reply header");
  }
  if (!support::next_line(rest, line)) return std::string("truncated peek-reply");
  if (line == "status miss") {
    if (!support::next_line(rest, line) || line != "end") return std::string("bad miss reply");
    return std::optional<driver::ScheduleCache::Entry>{};
  }
  if (line != "status hit") return std::string("bad status");
  auto entry = driver::parse_entry_text(rest, kMaxWireSlots);
  if (auto* err = std::get_if<std::string>(&entry)) return std::move(*err);
  return std::optional<driver::ScheduleCache::Entry>{
      std::get<driver::ScheduleCache::Entry>(std::move(entry))};
}

}  // namespace tms::serve
