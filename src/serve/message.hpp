// Request/response payloads carried inside tmsd frames.
//
// Both directions use the same line-oriented text convention as the
// .loop format and the .tmscache files: a versioned first line, `key
// value` lines, and (for requests) a `loop` line after which the rest of
// the payload is the ir::textio loop text. Parsing is strict — an
// unknown key, a missing field, or trailing garbage is a parse error,
// never silently ignored — because the request parser faces the network
// and is fuzz-tested alongside the frame parser.
//
// A response is either a schedule (`status ok`: II, MII, the TMS
// acceptance thresholds, per-node slots — exactly what a ScheduleCache
// entry stores, so the client reconstructs the identical Schedule) or a
// structured error (`status error`: an ErrorCode, a one-line message,
// and for kOverload a retry_after_ms hint the client should back off
// by).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "ir/loop.hpp"
#include "machine/spmt_config.hpp"

namespace tms::serve {

struct Request {
  std::uint64_t id = 0;            ///< client correlation id, echoed back
  /// Optional end-to-end request identity: a token of 1..64 chars from
  /// [A-Za-z0-9._:-], echoed verbatim in the response and attached to
  /// the server-side trace span. Empty = server mints one ("srv-<n>").
  std::string request_id;
  std::string scheduler = "tms";   ///< "sms", "ims" or "tms"
  int ncore = 4;                   ///< SpmtConfig.ncore for this request
  std::int64_t deadline_ms = 0;    ///< 0 = no deadline
  /// Core-allocation policy and shared-bus machine terms for this request
  /// (SpmtConfig fields of the same names). Serialised only when they
  /// differ from the defaults, so pre-policy clients and servers keep
  /// exchanging byte-identical payloads.
  machine::AllocPolicy policy = machine::AllocPolicy::kModulo;
  int policy_stride = 1;
  int policy_block = 1;
  int bus_bytes_per_transfer = 0;
  int bus_bytes_per_cycle = 16;
  /// Distributed-trace context (docs/OBSERVABILITY.md "Distributed
  /// tracing"): a non-zero trace_id ties the server-side spans for this
  /// request into the caller's trace, with parent_span_id naming the
  /// span the server's work should hang under. Both serialise as 16-hex
  /// and are omit-when-default like the policy fields, so an untraced
  /// request is byte-identical to one minted before tracing existed.
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span_id = 0;
  ir::Loop loop{"unnamed"};
};

/// True when `id` is a legal wire request_id (1..64 chars, each from
/// [A-Za-z0-9._:-]). The empty string is *not* valid on the wire — an
/// absent request_id is expressed by omitting the line.
bool valid_request_id(std::string_view id);

enum class ErrorCode {
  kParse,         ///< malformed request payload
  kBadRequest,    ///< well-formed but unacceptable (unknown scheduler, machine knob out of range)
  kScheduleFail,  ///< the scheduler found no schedule
  kValidateFail,  ///< the independent validator rejected the schedule
  kDeadline,      ///< the request's deadline expired
  kOverload,      ///< queue over the high-water mark; retry after retry_after_ms
  kShutdown,      ///< server is draining; do not retry this connection
  kInternal,      ///< exception escaped the pipeline
};

std::string_view to_string(ErrorCode c);
/// Inverse of to_string; false when `s` names no code.
bool error_code_from_string(std::string_view s, ErrorCode& out);

struct Response {
  std::uint64_t id = 0;
  std::string request_id;  ///< echo of the request's id (or the minted one)
  bool ok = false;

  // status error
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  std::int64_t retry_after_ms = 0;  ///< only meaningful for kOverload

  // status ok
  std::string scheduler;
  bool cache_hit = false;
  int ii = 0;
  int mii = 0;
  int c_delay_threshold = -1;  ///< TMS acceptance threshold; -1 for SMS/IMS
  double p_max = -1.0;
  std::vector<int> slots;      ///< slot per node id, normalised
  double server_ms = 0.0;      ///< server-side wall time for this request

  // Per-stage server timings in microseconds (status ok only): how long
  // the request waited in the admission queue, then scheduling and
  // validation time, then total handle() wall time. Lets a client split
  // its observed latency into network vs queue vs compute.
  std::int64_t t_queue_us = 0;
  std::int64_t t_schedule_us = 0;
  std::int64_t t_validate_us = 0;
  std::int64_t t_total_us = 0;

  // Trace echo: set (and serialised) only when the request carried a
  // trace_id, so clients that never send trace context never see these
  // keys — their strict parsers keep working unchanged. span_id is the
  // server-side span the work ran under, ready to be stitched as a
  // child of the request's parent_span_id.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
};

/// The machine configuration `req` asks for. ncore always comes from the
/// request; a policy/bus field comes from the request when it differs
/// from its wire default and from `defaults` (a server's --policy/--bus-*
/// settings) otherwise — an omitted field parses back to the default, so
/// "unspecified" and "explicitly default" coincide. Only those five
/// terms are read from `defaults`; every other SpmtConfig field keeps its
/// built-in default.
machine::SpmtConfig request_config(const Request& req, const machine::SpmtConfig& defaults = {});

/// Copies cfg's ncore, policy and bus terms into `req` (the inverse of
/// request_config with the default `defaults`).
void set_request_config(Request& req, const machine::SpmtConfig& cfg);

std::string serialise_request(const Request& req);
/// Returns the request or a one-line parse-error description. `code`,
/// when given, receives the error's code: kBadRequest when the payload is
/// well-formed but a value exceeds a documented bound (a dependence
/// distance above ir::kMaxDistance), kParse otherwise.
std::variant<Request, std::string> parse_request(std::string_view payload,
                                                 ErrorCode* code = nullptr);

std::string serialise_response(const Response& resp);
std::variant<Response, std::string> parse_response(std::string_view payload);

/// Convenience constructor for error responses.
Response make_error(std::uint64_t id, ErrorCode code, std::string message,
                    std::int64_t retry_after_ms = 0);

}  // namespace tms::serve
