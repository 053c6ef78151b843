#include "serve/message.hpp"

#include "ir/textio.hpp"
#include "policy/policy.hpp"
#include "support/line_codec.hpp"

namespace tms::serve {

using support::append_kv;
using support::parse_double;
using support::parse_int;

namespace {

constexpr std::string_view kRequestHeader = "tmsq-request v1";
constexpr std::string_view kResponseHeader = "tmsq-response v1";

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
  out += '\n';
  append_kv(out, "id", req.id);
  if (!req.request_id.empty()) append_kv(out, "request_id", req.request_id);
  append_kv(out, "scheduler", req.scheduler);
  append_kv(out, "ncore", req.ncore);
  append_kv(out, "deadline_ms", req.deadline_ms);
  // Omit-when-default, like request_id: a default-policy request is
  // byte-identical to one minted before these fields existed.
  if (req.policy != machine::AllocPolicy::kModulo) {
    append_kv(out, "policy", policy::to_string(req.policy));
  }
  if (req.policy_stride != 1) append_kv(out, "policy_stride", req.policy_stride);
  if (req.policy_block != 1) append_kv(out, "policy_block", req.policy_block);
  if (req.bus_bytes_per_transfer != 0) {
    append_kv(out, "bus_bytes_per_transfer", req.bus_bytes_per_transfer);
  }
  if (req.bus_bytes_per_cycle != 16) append_kv(out, "bus_bytes_per_cycle", req.bus_bytes_per_cycle);
  // Trace context, omit-when-default like the policy fields above: an
  // untraced request stays byte-identical to a pre-tracing one.
  if (req.trace_id != 0) append_kv(out, "trace_id", support::hex16(req.trace_id));
  if (req.parent_span_id != 0) {
    append_kv(out, "parent_span_id", support::hex16(req.parent_span_id));
  }
  out += "loop\n";
  out += ir::serialise_loop(req.loop);
  return out;
}

std::variant<Request, std::string> parse_request(std::string_view payload, ErrorCode* code) {
  if (code != nullptr) *code = ErrorCode::kParse;
  std::string_view rest = payload;
  std::string_view line;
  if (!support::next_line(rest, line) || line != kRequestHeader) {
    return std::string("bad request header");
  }
  Request req;
  bool have_loop = false;
  while (support::next_line(rest, line)) {
    if (line == "loop") {
      have_loop = true;
      break;
    }
    const auto [key, value] = support::split_kv(line);
    // Syntax only: the machine knobs' ranges (ncore, policy, bus) are
    // checked at admission (policy::machine_config_error), once for
    // every caller.
    bool ok = true;
    if (key == "id") {
      ok = parse_int(value, req.id);
    } else if (key == "request_id") {
      ok = valid_request_id(value);
      req.request_id = std::string(value);
    } else if (key == "scheduler") {
      ok = !value.empty();
      req.scheduler = std::string(value);
    } else if (key == "ncore") {
      ok = parse_int(value, req.ncore);
    } else if (key == "deadline_ms") {
      ok = parse_int(value, req.deadline_ms);
    } else if (key == "policy") {
      ok = policy::policy_from_string(value, req.policy);
    } else if (key == "policy_stride") {
      ok = parse_int(value, req.policy_stride);
    } else if (key == "policy_block") {
      ok = parse_int(value, req.policy_block);
    } else if (key == "bus_bytes_per_transfer") {
      ok = parse_int(value, req.bus_bytes_per_transfer);
    } else if (key == "bus_bytes_per_cycle") {
      ok = parse_int(value, req.bus_bytes_per_cycle);
    } else if (key == "trace_id") {
      ok = support::parse_hex16(value, req.trace_id);
    } else if (key == "parent_span_id") {
      ok = support::parse_hex16(value, req.parent_span_id);
    } else {
      return "unknown request field '" + std::string(key) + "'";
    }
    if (!ok) return "bad " + std::string(key);
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
  out += '\n';
  append_kv(out, "id", resp.id);
  if (!resp.request_id.empty()) append_kv(out, "request_id", resp.request_id);
  // Echoed only when the request carried trace context: clients that
  // never send a trace_id never see these keys, so their (strict,
  // pre-tracing) response parsers are unaffected.
  if (resp.trace_id != 0) {
    append_kv(out, "trace_id", support::hex16(resp.trace_id));
    if (resp.span_id != 0) append_kv(out, "span_id", support::hex16(resp.span_id));
  }
  if (!resp.ok) {
    append_kv(out, "status", "error");
    append_kv(out, "code", to_string(resp.code));
    append_kv(out, "retry_after_ms", resp.retry_after_ms);
    append_kv(out, "message", one_line(resp.message));
    out += "end\n";
    return out;
  }
  append_kv(out, "status", "ok");
  append_kv(out, "scheduler", resp.scheduler);
  append_kv(out, "cache_hit", resp.cache_hit ? "1" : "0");
  append_kv(out, "ii", resp.ii);
  append_kv(out, "mii", resp.mii);
  append_kv(out, "c_delay_threshold", resp.c_delay_threshold);
  append_kv(out, "p_max", resp.p_max);
  append_kv(out, "server_ms", resp.server_ms);
  append_kv(out, "t_queue_us", resp.t_queue_us);
  append_kv(out, "t_schedule_us", resp.t_schedule_us);
  append_kv(out, "t_validate_us", resp.t_validate_us);
  append_kv(out, "t_total_us", resp.t_total_us);
  append_kv(out, "slots", resp.slots);
  out += "end\n";
  return out;
}

std::variant<Response, std::string> parse_response(std::string_view payload) {
  std::string_view rest = payload;
  std::string_view line;
  if (!support::next_line(rest, line) || line != kResponseHeader) {
    return std::string("bad response header");
  }
  Response resp;
  bool have_status = false;
  bool have_end = false;
  while (support::next_line(rest, line)) {
    if (line == "end") {
      have_end = true;
      break;
    }
    const auto [key, value] = support::split_kv(line);
    bool ok = true;
    if (key == "id") {
      ok = parse_int(value, resp.id);
    } else if (key == "request_id") {
      ok = valid_request_id(value);
      resp.request_id = std::string(value);
    } else if (key == "status") {
      ok = value == "ok" || value == "error";
      resp.ok = value == "ok";
      have_status = true;
    } else if (key == "code") {
      ok = error_code_from_string(value, resp.code);
    } else if (key == "retry_after_ms") {
      ok = parse_int(value, resp.retry_after_ms);
    } else if (key == "message") {
      resp.message = std::string(value);
    } else if (key == "scheduler") {
      resp.scheduler = std::string(value);
    } else if (key == "cache_hit") {
      ok = value == "1" || value == "0";
      resp.cache_hit = value == "1";
    } else if (key == "ii") {
      ok = parse_int(value, resp.ii);
    } else if (key == "mii") {
      ok = parse_int(value, resp.mii);
    } else if (key == "c_delay_threshold") {
      ok = parse_int(value, resp.c_delay_threshold);
    } else if (key == "p_max") {
      ok = parse_double(value, resp.p_max);
    } else if (key == "server_ms") {
      ok = parse_double(value, resp.server_ms);
    } else if (key == "t_queue_us") {
      ok = parse_int(value, resp.t_queue_us);
    } else if (key == "t_schedule_us") {
      ok = parse_int(value, resp.t_schedule_us);
    } else if (key == "t_validate_us") {
      ok = parse_int(value, resp.t_validate_us);
    } else if (key == "t_total_us") {
      ok = parse_int(value, resp.t_total_us);
    } else if (key == "trace_id") {
      ok = support::parse_hex16(value, resp.trace_id);
    } else if (key == "span_id") {
      ok = support::parse_hex16(value, resp.span_id);
    } else if (key == "slots") {
      ok = support::parse_slots(value, kMaxWireSlots, resp.slots);
    } else {
      return "unknown response field '" + std::string(key) + "'";
    }
    if (!ok) return "bad " + std::string(key);
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
