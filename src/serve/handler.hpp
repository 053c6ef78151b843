// The request-handler seam between the transport and a service.
//
// SocketServer speaks the TMSQ wire protocol; what answers a parsed
// frame is a Handler. CompileService (one tmsd shard doing real
// scheduling work) and router::Router (a tmsrouter fronting many
// shards) both implement it, which is what lets the router reuse the
// transport byte-for-byte: same framing, same side channels, same
// drain behaviour.
//
// This header also carries the PEEK payload codec. PEEK (frame type 9)
// is the cache peer-fill side channel (docs/ROUTING.md): a shard that
// misses its ScheduleCache asks a ring sibling whether it already
// holds the entry before recomputing. Like STATS/HEALTH it is answered
// inline on the connection thread — never queued, never compile work,
// still answered while draining — so a probe can never be starved by a
// full compile queue.
//
//   tmsq-peek-v1            tmsq-peek-reply-v1
//   key <16-hex>            status hit|miss
//   instrs <N>              [scheduler/ii/mii/c_delay_threshold/p_max/slots]
//                           end
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "driver/schedule_cache.hpp"
#include "serve/message.hpp"

namespace tms::serve {

class Handler {
 public:
  virtual ~Handler();

  /// Answer one compile request; must be safe from any number of
  /// connection threads concurrently and must never throw.
  virtual Response handle(const Request& req, std::string_view peer) = 0;

  /// The STATS payload: one canonical-JSON snapshot.
  virtual std::string stats_json() const = 0;

  /// The HEALTH payload: one line, first token "ok" or "draining".
  virtual std::string health_line() const = 0;

  /// The PEEK_REPLY payload for a PEEK probe. The default is a
  /// well-formed miss — correct for handlers without a cache tier of
  /// their own (the router never answers peer-fill on a shard's
  /// behalf; siblings are asked directly).
  virtual std::string peek_reply(std::string_view payload);

  /// The CLUSTER_STATS payload. Meaningful on a router, which fans out
  /// to every backend and merges the registries into one
  /// cluster-stats-v1 snapshot; the default is a one-shard
  /// degenerate snapshot wrapping stats_json(), so the verb works
  /// (and keeps its schema) pointed directly at a tmsd.
  virtual std::string cluster_stats_json() const;

  /// The FLIGHT_REPLY payload: the handler's flight-recorder dump
  /// (tmsd-flight-v1). The default is a well-formed empty dump —
  /// correct for handlers that record no flights (the router).
  virtual std::string flight_json() const;

  /// Backoff hint the transport attaches to connection-limit
  /// turn-aways.
  virtual std::int64_t retry_after_ms() const = 0;
};

struct PeekQuery {
  std::uint64_t key = 0;
  int expect_instrs = 0;  ///< parse_peek takes 1 to kMaxWireSlots
};

std::string serialise_peek(const PeekQuery& q);
std::variant<PeekQuery, std::string> parse_peek(std::string_view payload);

/// nullopt = miss.
std::string serialise_peek_reply(const std::optional<driver::ScheduleCache::Entry>& entry);
std::variant<std::optional<driver::ScheduleCache::Entry>, std::string> parse_peek_reply(
    std::string_view payload);

}  // namespace tms::serve
