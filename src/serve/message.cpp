#include "serve/message.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "ir/textio.hpp"
#include "policy/policy.hpp"

namespace tms::serve {

namespace {

constexpr std::string_view kRequestHeader = "tmsq-request v1";
constexpr std::string_view kResponseHeader = "tmsq-response v1";

/// Pops the next '\n'-terminated line (or the final unterminated tail)
/// from `rest`. Returns false when `rest` is exhausted.
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

/// Splits "key value" on the first space; value may itself contain
/// spaces (used by `message`).
void split_kv(std::string_view line, std::string_view& key, std::string_view& value) {
  const std::size_t sp = line.find(' ');
  if (sp == std::string_view::npos) {
    key = line;
    value = {};
  } else {
    key = line.substr(0, sp);
    value = line.substr(sp + 1);
  }
}

bool parse_i64(std::string_view s, std::int64_t& out) {
  if (s.empty()) return false;
  const std::string tmp(s);
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(tmp.c_str(), &end, 10);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) return false;
  out = v;
  return true;
}

bool parse_u64(std::string_view s, std::uint64_t& out) {
  if (s.empty() || s[0] == '-') return false;
  const std::string tmp(s);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(tmp.c_str(), &end, 10);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) return false;
  out = v;
  return true;
}

bool parse_int(std::string_view s, int& out) {
  std::int64_t v = 0;
  if (!parse_i64(s, v) || v < INT32_MIN || v > INT32_MAX) return false;
  out = static_cast<int>(v);
  return true;
}

bool parse_double(std::string_view s, double& out) {
  if (s.empty()) return false;
  const std::string tmp(s);
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(tmp.c_str(), &end);
  if (errno != 0 || end != tmp.c_str() + tmp.size()) return false;
  out = v;
  return true;
}

void append_double(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

/// Trace ids travel as exactly 16 lowercase hex digits (the same shape
/// the PEEK codec uses for cache keys).
bool parse_hex_u64(std::string_view s, std::uint64_t& out) {
  if (s.size() != 16) return false;
  std::uint64_t v = 0;
  for (const char c : s) {
    int d;
    if (c >= '0' && c <= '9') {
      d = c - '0';
    } else if (c >= 'a' && c <= 'f') {
      d = c - 'a' + 10;
    } else {
      return false;
    }
    v = (v << 4) | static_cast<std::uint64_t>(d);
  }
  out = v;
  return true;
}

void append_hex16(std::string& out, std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  out += buf;
}

/// Error messages travel on one line; fold any embedded newline.
std::string one_line(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

}  // namespace

std::string_view to_string(ErrorCode c) {
  switch (c) {
    case ErrorCode::kParse: return "parse";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kScheduleFail: return "schedule-fail";
    case ErrorCode::kValidateFail: return "validate-fail";
    case ErrorCode::kDeadline: return "deadline";
    case ErrorCode::kOverload: return "overload";
    case ErrorCode::kShutdown: return "shutdown";
    case ErrorCode::kInternal: return "internal";
  }
  return "?";
}

bool error_code_from_string(std::string_view s, ErrorCode& out) {
  static constexpr ErrorCode kAll[] = {
      ErrorCode::kParse,    ErrorCode::kBadRequest, ErrorCode::kScheduleFail,
      ErrorCode::kValidateFail, ErrorCode::kDeadline, ErrorCode::kOverload,
      ErrorCode::kShutdown, ErrorCode::kInternal,
  };
  for (const ErrorCode c : kAll) {
    if (to_string(c) == s) {
      out = c;
      return true;
    }
  }
  return false;
}

bool valid_request_id(std::string_view id) {
  if (id.empty() || id.size() > 64) return false;
  for (const char c : id) {
    const bool ok = (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == ':' || c == '-';
    if (!ok) return false;
  }
  return true;
}

machine::SpmtConfig request_config(const Request& req, const machine::SpmtConfig& defaults) {
  const machine::SpmtConfig wire;
  machine::SpmtConfig cfg;
  cfg.ncore = req.ncore;
  cfg.policy = req.policy != wire.policy ? req.policy : defaults.policy;
  cfg.policy_stride =
      req.policy_stride != wire.policy_stride ? req.policy_stride : defaults.policy_stride;
  cfg.policy_block =
      req.policy_block != wire.policy_block ? req.policy_block : defaults.policy_block;
  cfg.bus_bytes_per_transfer = req.bus_bytes_per_transfer != wire.bus_bytes_per_transfer
                                   ? req.bus_bytes_per_transfer
                                   : defaults.bus_bytes_per_transfer;
  cfg.bus_bytes_per_cycle = req.bus_bytes_per_cycle != wire.bus_bytes_per_cycle
                                ? req.bus_bytes_per_cycle
                                : defaults.bus_bytes_per_cycle;
  return cfg;
}

void set_request_config(Request& req, const machine::SpmtConfig& cfg) {
  req.ncore = cfg.ncore;
  req.policy = cfg.policy;
  req.policy_stride = cfg.policy_stride;
  req.policy_block = cfg.policy_block;
  req.bus_bytes_per_transfer = cfg.bus_bytes_per_transfer;
  req.bus_bytes_per_cycle = cfg.bus_bytes_per_cycle;
}

std::string serialise_request(const Request& req) {
  std::string out(kRequestHeader);
  out += "\nid ";
  out += std::to_string(req.id);
  if (!req.request_id.empty()) {
    out += "\nrequest_id ";
    out += req.request_id;
  }
  out += "\nscheduler ";
  out += req.scheduler;
  out += "\nncore ";
  out += std::to_string(req.ncore);
  out += "\ndeadline_ms ";
  out += std::to_string(req.deadline_ms);
  // Omit-when-default, like request_id: a default-policy request is
  // byte-identical to one minted before these fields existed.
  if (req.policy != machine::AllocPolicy::kModulo) {
    out += "\npolicy ";
    out += policy::to_string(req.policy);
  }
  if (req.policy_stride != 1) {
    out += "\npolicy_stride ";
    out += std::to_string(req.policy_stride);
  }
  if (req.policy_block != 1) {
    out += "\npolicy_block ";
    out += std::to_string(req.policy_block);
  }
  if (req.bus_bytes_per_transfer != 0) {
    out += "\nbus_bytes_per_transfer ";
    out += std::to_string(req.bus_bytes_per_transfer);
  }
  if (req.bus_bytes_per_cycle != 16) {
    out += "\nbus_bytes_per_cycle ";
    out += std::to_string(req.bus_bytes_per_cycle);
  }
  // Trace context, omit-when-default like the policy fields above: an
  // untraced request stays byte-identical to a pre-tracing one.
  if (req.trace_id != 0) {
    out += "\ntrace_id ";
    append_hex16(out, req.trace_id);
  }
  if (req.parent_span_id != 0) {
    out += "\nparent_span_id ";
    append_hex16(out, req.parent_span_id);
  }
  out += "\nloop\n";
  out += ir::serialise_loop(req.loop);
  return out;
}

std::variant<Request, std::string> parse_request(std::string_view payload, ErrorCode* code) {
  if (code != nullptr) *code = ErrorCode::kParse;
  std::string_view rest = payload;
  std::string_view line;
  if (!next_line(rest, line) || line != kRequestHeader) {
    return std::string("bad request header");
  }
  Request req;
  bool have_loop = false;
  while (next_line(rest, line)) {
    if (line == "loop") {
      have_loop = true;
      break;
    }
    std::string_view key, value;
    split_kv(line, key, value);
    if (key == "id") {
      if (!parse_u64(value, req.id)) return std::string("bad id");
    } else if (key == "request_id") {
      if (!valid_request_id(value)) return std::string("bad request_id");
      req.request_id = std::string(value);
    } else if (key == "scheduler") {
      if (value.empty()) return std::string("bad scheduler");
      req.scheduler = std::string(value);
    } else if (key == "ncore") {
      if (!parse_int(value, req.ncore)) return std::string("bad ncore");
    } else if (key == "deadline_ms") {
      if (!parse_i64(value, req.deadline_ms)) return std::string("bad deadline_ms");
    } else if (key == "policy") {
      if (!policy::policy_from_string(value, req.policy)) return std::string("bad policy");
    } else if (key == "policy_stride") {
      // Syntax only: like ncore, the machine knobs' ranges are checked at
      // admission (policy::machine_config_error), once for every caller.
      if (!parse_int(value, req.policy_stride)) return std::string("bad policy_stride");
    } else if (key == "policy_block") {
      if (!parse_int(value, req.policy_block)) return std::string("bad policy_block");
    } else if (key == "bus_bytes_per_transfer") {
      if (!parse_int(value, req.bus_bytes_per_transfer)) {
        return std::string("bad bus_bytes_per_transfer");
      }
    } else if (key == "bus_bytes_per_cycle") {
      if (!parse_int(value, req.bus_bytes_per_cycle)) {
        return std::string("bad bus_bytes_per_cycle");
      }
    } else if (key == "trace_id") {
      if (!parse_hex_u64(value, req.trace_id)) return std::string("bad trace_id");
    } else if (key == "parent_span_id") {
      if (!parse_hex_u64(value, req.parent_span_id)) return std::string("bad parent_span_id");
    } else {
      return "unknown request field '" + std::string(key) + "'";
    }
  }
  if (!have_loop) return std::string("missing loop section");
  auto parsed = ir::parse_loop_string(std::string(rest));
  if (const auto* err = std::get_if<ir::ParseError>(&parsed)) {
    if (code != nullptr && err->over_bound) *code = ErrorCode::kBadRequest;
    return "loop line " + std::to_string(err->line) + ": " + err->message;
  }
  req.loop = std::get<ir::Loop>(std::move(parsed));
  return req;
}

std::string serialise_response(const Response& resp) {
  std::string out(kResponseHeader);
  out += "\nid ";
  out += std::to_string(resp.id);
  if (!resp.request_id.empty()) {
    out += "\nrequest_id ";
    out += resp.request_id;
  }
  // Echoed only when the request carried trace context: clients that
  // never send a trace_id never see these keys, so their (strict,
  // pre-tracing) response parsers are unaffected.
  if (resp.trace_id != 0) {
    out += "\ntrace_id ";
    append_hex16(out, resp.trace_id);
    if (resp.span_id != 0) {
      out += "\nspan_id ";
      append_hex16(out, resp.span_id);
    }
  }
  if (!resp.ok) {
    out += "\nstatus error\ncode ";
    out += to_string(resp.code);
    out += "\nretry_after_ms ";
    out += std::to_string(resp.retry_after_ms);
    out += "\nmessage ";
    out += one_line(resp.message);
    out += "\nend\n";
    return out;
  }
  out += "\nstatus ok\nscheduler ";
  out += resp.scheduler;
  out += "\ncache_hit ";
  out += resp.cache_hit ? '1' : '0';
  out += "\nii ";
  out += std::to_string(resp.ii);
  out += "\nmii ";
  out += std::to_string(resp.mii);
  out += "\nc_delay_threshold ";
  out += std::to_string(resp.c_delay_threshold);
  out += "\np_max ";
  append_double(out, resp.p_max);
  out += "\nserver_ms ";
  append_double(out, resp.server_ms);
  out += "\nt_queue_us ";
  out += std::to_string(resp.t_queue_us);
  out += "\nt_schedule_us ";
  out += std::to_string(resp.t_schedule_us);
  out += "\nt_validate_us ";
  out += std::to_string(resp.t_validate_us);
  out += "\nt_total_us ";
  out += std::to_string(resp.t_total_us);
  out += "\nslots ";
  out += std::to_string(resp.slots.size());
  for (const int s : resp.slots) {
    out += ' ';
    out += std::to_string(s);
  }
  out += "\nend\n";
  return out;
}

std::variant<Response, std::string> parse_response(std::string_view payload) {
  std::string_view rest = payload;
  std::string_view line;
  if (!next_line(rest, line) || line != kResponseHeader) {
    return std::string("bad response header");
  }
  Response resp;
  bool have_status = false;
  bool have_end = false;
  while (next_line(rest, line)) {
    if (line == "end") {
      have_end = true;
      break;
    }
    std::string_view key, value;
    split_kv(line, key, value);
    if (key == "id") {
      if (!parse_u64(value, resp.id)) return std::string("bad id");
    } else if (key == "request_id") {
      if (!valid_request_id(value)) return std::string("bad request_id");
      resp.request_id = std::string(value);
    } else if (key == "status") {
      if (value == "ok") {
        resp.ok = true;
      } else if (value == "error") {
        resp.ok = false;
      } else {
        return std::string("bad status");
      }
      have_status = true;
    } else if (key == "code") {
      if (!error_code_from_string(value, resp.code)) return std::string("bad code");
    } else if (key == "retry_after_ms") {
      if (!parse_i64(value, resp.retry_after_ms)) return std::string("bad retry_after_ms");
    } else if (key == "message") {
      resp.message = std::string(value);
    } else if (key == "scheduler") {
      resp.scheduler = std::string(value);
    } else if (key == "cache_hit") {
      if (value == "1") {
        resp.cache_hit = true;
      } else if (value == "0") {
        resp.cache_hit = false;
      } else {
        return std::string("bad cache_hit");
      }
    } else if (key == "ii") {
      if (!parse_int(value, resp.ii)) return std::string("bad ii");
    } else if (key == "mii") {
      if (!parse_int(value, resp.mii)) return std::string("bad mii");
    } else if (key == "c_delay_threshold") {
      if (!parse_int(value, resp.c_delay_threshold)) return std::string("bad c_delay_threshold");
    } else if (key == "p_max") {
      if (!parse_double(value, resp.p_max)) return std::string("bad p_max");
    } else if (key == "server_ms") {
      if (!parse_double(value, resp.server_ms)) return std::string("bad server_ms");
    } else if (key == "t_queue_us") {
      if (!parse_i64(value, resp.t_queue_us)) return std::string("bad t_queue_us");
    } else if (key == "t_schedule_us") {
      if (!parse_i64(value, resp.t_schedule_us)) return std::string("bad t_schedule_us");
    } else if (key == "t_validate_us") {
      if (!parse_i64(value, resp.t_validate_us)) return std::string("bad t_validate_us");
    } else if (key == "t_total_us") {
      if (!parse_i64(value, resp.t_total_us)) return std::string("bad t_total_us");
    } else if (key == "trace_id") {
      if (!parse_hex_u64(value, resp.trace_id)) return std::string("bad trace_id");
    } else if (key == "span_id") {
      if (!parse_hex_u64(value, resp.span_id)) return std::string("bad span_id");
    } else if (key == "slots") {
      std::istringstream in{std::string(value)};
      std::size_t n = 0;
      if (!(in >> n) || n > (1u << 20)) return std::string("bad slots count");
      resp.slots.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (!(in >> resp.slots[i])) return std::string("bad slots");
      }
      std::string trailing;
      if (in >> trailing) return std::string("bad slots");
    } else {
      return "unknown response field '" + std::string(key) + "'";
    }
  }
  if (!have_status || !have_end) return std::string("truncated response");
  if (resp.ok && resp.ii <= 0) return std::string("ok response without schedule");
  return resp;
}

Response make_error(std::uint64_t id, ErrorCode code, std::string message,
                    std::int64_t retry_after_ms) {
  Response r;
  r.id = id;
  r.ok = false;
  r.code = code;
  r.message = std::move(message);
  r.retry_after_ms = retry_after_ms;
  return r;
}

}  // namespace tms::serve
