// tmstop — curses-free live monitor for a running tmsd.
//
// Polls the STATS protocol verb (see docs/SERVING.md) on an interval
// and renders a compact dashboard to stdout: the HEALTH line, request /
// reject / error rates computed from consecutive snapshot deltas, cache
// hit %, and per-stage latency quantiles estimated from the
// serve.latency.* log2 histogram buckets. No terminal library: when
// stdout is a TTY each tick redraws from the home position with an ANSI
// clear; otherwise (piped, CI) ticks are plain appended blocks, one per
// poll, which is what tests/serve_smoke.sh greps.
//
// STATS answers even while the daemon is draining, so tmstop keeps
// rendering right up to the moment the socket closes.
//
// A daemon restart between polls makes every monotonic counter jump
// backwards; rates clamp to zero for that tick and the block carries a
// "[restart]" marker instead of nonsense negative (or huge) rates.
//
// Usage:
//   tmstop (--socket PATH | --tcp HOST:PORT) [options]
//     --interval-ms N   poll interval (default 1000)
//     --count N         exit 0 after N polls (0 = run until the server
//                       goes away; default 0)
//     --expect-traffic  exit 1 unless some pair of consecutive snapshots
//                       showed a positive request rate (used by the
//                       smoke test to prove live numbers, not zeros)
//     --cluster         poll CLUSTER_STATS instead of STATS: point at a
//                       tmsrouter and render the merged aggregate
//                       percentiles plus one line per shard (latency,
//                       health, ejection state). Works against a lone
//                       tmsd too (degenerate one-shard cluster)
//     --no-clear        never emit ANSI clear codes, even on a TTY
//
// Exit status: 0 on a clean finish (count reached, or the server closed
// after at least one successful poll when --count 0), 1 on transport or
// parse failures (or --expect-traffic unmet), 2 on usage errors.
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "support/json_parse.hpp"
#include "support/parse.hpp"

using namespace tms;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket PATH | --tcp HOST:PORT)\n"
               "          [--interval-ms N] [--count N] [--expect-traffic] [--cluster]\n"
               "          [--no-clear]\n",
               argv0);
  return 2;
}

/// One parsed STATS snapshot: the handful of scalars tmstop renders,
/// plus the four stage histograms (24 log2-microsecond buckets each).
struct Snapshot {
  std::int64_t uptime_ms = 0;
  std::int64_t queue_depth = 0;
  std::int64_t in_flight = 0;
  bool draining = false;
  double requests = 0;
  double responses_ok = 0;
  double responses_error = 0;
  double overload = 0;
  double cache_hits = 0;
  double cache_misses = 0;
  std::array<std::vector<double>, 4> stages;  // queue_wait, schedule, validate, total
};

constexpr const char* kStageNames[4] = {"serve.latency.queue_wait", "serve.latency.schedule",
                                        "serve.latency.validate", "serve.latency.total"};
constexpr const char* kStageLabels[4] = {"queue_wait", "schedule", "validate", "total"};

double num_or_zero(const support::JsonValue* v) {
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// Fills the counter scalars and stage histograms from an
/// "observability"-shaped object (counters / time_histograms members) —
/// shared between the per-daemon STATS payload and the cluster
/// aggregate, which is written by the same JSON emitter.
std::optional<std::string> fill_from_observability(const support::JsonValue& obs,
                                                   Snapshot& out) {
  const auto* counters = obs.find("counters");
  if (counters == nullptr || !counters->is_object()) return std::string("missing counters");
  out.requests = num_or_zero(counters->find("serve.requests"));
  out.responses_ok = num_or_zero(counters->find("serve.responses_ok"));
  out.responses_error = num_or_zero(counters->find("serve.responses_error"));
  out.overload = num_or_zero(counters->find("serve.rejected_overload"));
  out.cache_hits = num_or_zero(counters->find("driver.cache_hits"));
  out.cache_misses = num_or_zero(counters->find("driver.cache_misses"));
  const auto* th = obs.find("time_histograms");
  if (th == nullptr || !th->is_object()) return std::string("missing time_histograms");
  for (int s = 0; s < 4; ++s) {
    const auto* hist = th->find(kStageNames[s]);
    const auto* buckets = hist != nullptr ? hist->find("buckets") : nullptr;
    if (buckets == nullptr || !buckets->is_array()) {
      return std::string("missing histogram ") + kStageNames[s];
    }
    out.stages[static_cast<std::size_t>(s)].clear();
    for (const auto& b : buckets->items()) {
      out.stages[static_cast<std::size_t>(s)].push_back(num_or_zero(&b));
    }
  }
  return std::nullopt;
}

/// Parses the tmsd-stats-v1 payload. Returns a failure description on
/// anything structurally off — tmstop treats that as a server bug.
std::optional<std::string> parse_snapshot(const std::string& payload, Snapshot& out) {
  auto parsed = support::parse_json(payload);
  if (const auto* err = std::get_if<std::string>(&parsed)) return *err;
  const auto& root = std::get<support::JsonValue>(parsed);
  const auto* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != "tmsd-stats-v1") {
    return std::string("missing schema tmsd-stats-v1");
  }
  out.uptime_ms = static_cast<std::int64_t>(num_or_zero(root.find("uptime_ms")));
  out.queue_depth = static_cast<std::int64_t>(num_or_zero(root.find("queue_depth")));
  out.in_flight = static_cast<std::int64_t>(num_or_zero(root.find("in_flight")));
  const auto* draining = root.find("draining");
  out.draining = draining != nullptr && draining->is_bool() && draining->as_bool();
  const auto* obs = root.find("observability");
  if (obs == nullptr || !obs->is_object()) return std::string("missing observability object");
  return fill_from_observability(*obs, out);
}

/// One shard row of a cluster-stats-v1 snapshot.
struct ClusterShard {
  std::string address;
  bool healthy = true;
  bool ok = false;
  std::string error;
  Snapshot snap;  ///< only meaningful when ok
};

/// Parses the cluster-stats-v1 payload: the merged aggregate into
/// `aggregate` (uptime/queue fields stay zero — they do not aggregate)
/// and one ClusterShard per shards[] entry.
std::optional<std::string> parse_cluster(const std::string& payload, Snapshot& aggregate,
                                         std::vector<ClusterShard>& shards,
                                         bool& source_router, bool& draining) {
  auto parsed = support::parse_json(payload);
  if (const auto* err = std::get_if<std::string>(&parsed)) return *err;
  const auto& root = std::get<support::JsonValue>(parsed);
  const auto* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != "cluster-stats-v1") {
    return std::string("missing schema cluster-stats-v1");
  }
  const auto* source = root.find("source");
  source_router = source != nullptr && source->is_string() && source->as_string() == "tmsrouter";
  const auto* d = root.find("draining");
  draining = d != nullptr && d->is_bool() && d->as_bool();
  const auto* agg = root.find("aggregate");
  if (agg == nullptr || !agg->is_object()) return std::string("missing aggregate object");
  if (auto err = fill_from_observability(*agg, aggregate)) return err;
  const auto* arr = root.find("shards");
  if (arr == nullptr || !arr->is_array()) return std::string("missing shards array");
  shards.clear();
  for (const auto& item : arr->items()) {
    ClusterShard s;
    const auto* address = item.find("address");
    if (address != nullptr && address->is_string()) s.address = address->as_string();
    const auto* healthy = item.find("healthy");
    s.healthy = healthy == nullptr || !healthy->is_bool() || healthy->as_bool();
    const auto* ok = item.find("ok");
    s.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
    if (!s.ok) {
      const auto* error = item.find("error");
      if (error != nullptr && error->is_string()) s.error = error->as_string();
    } else {
      const auto* stats = item.find("stats");
      const auto* obs = stats != nullptr ? stats->find("observability") : nullptr;
      if (obs == nullptr || !obs->is_object()) {
        return "shard " + s.address + ": missing observability object";
      }
      if (auto err = fill_from_observability(*obs, s.snap)) {
        return "shard " + s.address + ": " + *err;
      }
    }
    shards.push_back(std::move(s));
  }
  return std::nullopt;
}

/// A monotonic counter moving backwards between polls means the daemon
/// restarted; one marker beats four nonsense rates.
bool restarted_since(const Snapshot& prev, const Snapshot& cur) {
  return cur.requests < prev.requests || cur.responses_ok < prev.responses_ok ||
         cur.responses_error < prev.responses_error || cur.overload < prev.overload;
}

/// Quantile estimate from log2-microsecond buckets: the upper edge
/// (2^b us) of the first bucket whose cumulative count reaches q of the
/// total. Coarse by design — within 2x, which is all a live dashboard
/// needs.
double quantile_us(const std::vector<double>& buckets, double q) {
  double total = 0;
  for (const double b : buckets) total += b;
  if (total <= 0) return 0;
  double cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= q * total) return b == 0 ? 0.0 : static_cast<double>(1ULL << b);
  }
  return static_cast<double>(1ULL << (buckets.size() - 1));
}

std::string fmt_us(double us) {
  char buf[32];
  if (us >= 1e6) {
    std::snprintf(buf, sizeof buf, "%.1fs", us / 1e6);
  } else if (us >= 1e3) {
    std::snprintf(buf, sizeof buf, "%.1fms", us / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fus", us);
  }
  return buf;
}

/// Per-second rate of a monotonic counter across two snapshots.
double rate(double prev, double cur, double dt_s) {
  return dt_s > 0 ? std::max(0.0, cur - prev) / dt_s : 0.0;
}

void render(const Snapshot& cur, const Snapshot* prev, double dt_s, const std::string& health,
            bool clear, bool restarted) {
  if (clear) std::printf("\033[H\033[2J");
  std::printf("tmstop: %s\n", health.c_str());
  const double hits_total = cur.cache_hits + cur.cache_misses;
  std::printf("  requests %.0f  ok %.0f  errors %.0f  overload %.0f  cache hit %.1f%%\n",
              cur.requests, cur.responses_ok, cur.responses_error, cur.overload,
              hits_total > 0 ? 100.0 * cur.cache_hits / hits_total : 0.0);
  if (prev != nullptr && restarted) {
    // The counters moved backwards: the daemon restarted between polls.
    // Every rate this tick is 0 by definition, not by arithmetic.
    std::printf("  rates/s: requests 0.0  ok 0.0  errors 0.0  overload rejects 0.0 [restart]\n");
  } else if (prev != nullptr) {
    std::printf("  rates/s: requests %.1f  ok %.1f  errors %.1f  overload rejects %.1f\n",
                rate(prev->requests, cur.requests, dt_s),
                rate(prev->responses_ok, cur.responses_ok, dt_s),
                rate(prev->responses_error, cur.responses_error, dt_s),
                rate(prev->overload, cur.overload, dt_s));
  }
  // Histogram deltas against a restarted daemon's buckets would be
  // nonsense too — fall back to the fresh lifetime buckets.
  if (restarted) prev = nullptr;
  for (int s = 0; s < 4; ++s) {
    const auto& lifetime = cur.stages[static_cast<std::size_t>(s)];
    // Prefer the delta histogram (what happened since the last tick);
    // fall back to lifetime buckets when the interval saw no traffic.
    std::vector<double> delta;
    if (prev != nullptr && prev->stages[static_cast<std::size_t>(s)].size() == lifetime.size()) {
      double n = 0;
      for (std::size_t b = 0; b < lifetime.size(); ++b) {
        const double d =
            std::max(0.0, lifetime[b] - prev->stages[static_cast<std::size_t>(s)][b]);
        delta.push_back(d);
        n += d;
      }
      if (n <= 0) delta.clear();
    }
    const std::vector<double>& src = delta.empty() ? lifetime : delta;
    double count = 0;
    for (const double b : src) count += b;
    std::printf("  %-10s %s n=%.0f  p50 %s  p90 %s  p99 %s\n", kStageLabels[s],
                delta.empty() ? "life" : "tick", count, fmt_us(quantile_us(src, 0.50)).c_str(),
                fmt_us(quantile_us(src, 0.90)).c_str(), fmt_us(quantile_us(src, 0.99)).c_str());
  }
  std::printf("  queue depth %lld  in flight %lld  uptime %.1fs\n", (long long)cur.queue_depth,
              (long long)cur.in_flight, static_cast<double>(cur.uptime_ms) / 1000.0);
  std::fflush(stdout);
}

void render_cluster(const Snapshot& aggregate, const std::vector<ClusterShard>& shards,
                    const Snapshot* prev, double dt_s, const std::string& health, bool clear,
                    bool restarted, bool source_router, bool draining) {
  if (clear) std::printf("\033[H\033[2J");
  std::size_t shards_ok = 0;
  for (const ClusterShard& s : shards) {
    if (s.ok) ++shards_ok;
  }
  std::printf("tmstop: cluster via %s  shards %zu/%zu ok%s  (%s)\n",
              source_router ? "tmsrouter" : "single tmsd", shards_ok, shards.size(),
              draining ? "  [draining]" : "", health.c_str());
  const double hits_total = aggregate.cache_hits + aggregate.cache_misses;
  std::printf("  aggregate: requests %.0f  ok %.0f  errors %.0f  overload %.0f  cache hit %.1f%%\n",
              aggregate.requests, aggregate.responses_ok, aggregate.responses_error,
              aggregate.overload, hits_total > 0 ? 100.0 * aggregate.cache_hits / hits_total : 0.0);
  if (prev != nullptr && restarted) {
    std::printf("  rates/s: requests 0.0  ok 0.0  errors 0.0 [restart]\n");
  } else if (prev != nullptr) {
    std::printf("  rates/s: requests %.1f  ok %.1f  errors %.1f\n",
                rate(prev->requests, aggregate.requests, dt_s),
                rate(prev->responses_ok, aggregate.responses_ok, dt_s),
                rate(prev->responses_error, aggregate.responses_error, dt_s));
  }
  // Aggregate per-stage percentiles (lifetime — the merged buckets are
  // an exact bucket-wise sum of the shards', so these quantiles carry
  // real cluster-wide information, not an average of averages).
  for (int s = 0; s < 4; ++s) {
    const auto& buckets = aggregate.stages[static_cast<std::size_t>(s)];
    double count = 0;
    for (const double b : buckets) count += b;
    std::printf("  %-10s n=%.0f  p50 %s  p90 %s  p99 %s\n", kStageLabels[s], count,
                fmt_us(quantile_us(buckets, 0.50)).c_str(),
                fmt_us(quantile_us(buckets, 0.90)).c_str(),
                fmt_us(quantile_us(buckets, 0.99)).c_str());
  }
  for (const ClusterShard& s : shards) {
    if (!s.ok) {
      std::printf("  shard %-24s %s  UNREACHABLE%s%s\n", s.address.c_str(),
                  s.healthy ? "healthy" : "EJECTED", s.error.empty() ? "" : ": ",
                  s.error.c_str());
      continue;
    }
    const auto& total = s.snap.stages[3];  // serve.latency.total
    double count = 0;
    for (const double b : total) count += b;
    std::printf("  shard %-24s %s  requests %.0f  p50 %s  p90 %s  p99 %s\n", s.address.c_str(),
                s.healthy ? "healthy" : "EJECTED", s.snap.requests,
                fmt_us(quantile_us(total, 0.50)).c_str(),
                fmt_us(quantile_us(total, 0.90)).c_str(),
                fmt_us(quantile_us(total, 0.99)).c_str());
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string tcp;
  long long interval_ms = 1000;
  long long count = 0;
  bool expect_traffic = false;
  bool cluster = false;
  bool no_clear = false;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    auto int_arg = [&](const char* what, auto& out) {
      if (const auto err = support::parse_int_flag(what, next(what), out)) {
        std::fprintf(stderr, "%s\n", err->c_str());
        std::exit(2);
      }
    };
    if (a == "--socket") {
      socket_path = next("--socket");
    } else if (a == "--tcp") {
      tcp = next("--tcp");
    } else if (a == "--interval-ms") {
      int_arg("--interval-ms", interval_ms);
    } else if (a == "--count") {
      int_arg("--count", count);
    } else if (a == "--expect-traffic") {
      expect_traffic = true;
    } else if (a == "--cluster") {
      cluster = true;
    } else if (a == "--no-clear") {
      no_clear = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() == tcp.empty()) {
    std::fprintf(stderr, "exactly one of --socket / --tcp is required\n");
    return usage(argv[0]);
  }
  if (interval_ms < 1) {
    std::fprintf(stderr, "--interval-ms must be positive\n");
    return 2;
  }
  const bool clear = !no_clear && ::isatty(STDOUT_FILENO) == 1;

  serve::Client client;
  std::optional<std::string> cerr;
  if (!socket_path.empty()) {
    cerr = client.connect_unix(socket_path);
  } else {
    std::string host;
    int port = 0;
    if (!support::parse_host_port(tcp, host, port)) {
      std::fprintf(stderr, "--tcp expects HOST:PORT\n");
      return 2;
    }
    cerr = client.connect_tcp(host, port);
  }
  if (cerr.has_value()) {
    std::fprintf(stderr, "tmstop: %s\n", cerr->c_str());
    return 1;
  }

  Snapshot prev;
  bool have_prev = false;
  bool saw_traffic = false;
  long long polls = 0;
  auto last_poll = std::chrono::steady_clock::now();
  for (;;) {
    std::string payload;
    const auto poll_err = cluster ? client.cluster_stats(payload) : client.stats(payload);
    if (poll_err.has_value()) {
      // Server went away: a clean end for an unbounded watch that got
      // at least one snapshot, an error for a bounded one cut short.
      if (count == 0 && polls > 0) {
        std::printf("tmstop: server closed (%s)\n", poll_err->c_str());
        break;
      }
      std::fprintf(stderr, "tmstop: stats: %s\n", poll_err->c_str());
      return 1;
    }
    std::string health;
    if (const auto err = client.health(health)) {
      // The server may drop the connection between the STATS and HEALTH
      // round trips of one tick; treat that the same as a close on STATS.
      if (count == 0 && polls > 0) {
        std::printf("tmstop: server closed (%s)\n", err->c_str());
        break;
      }
      std::fprintf(stderr, "tmstop: health: %s\n", err->c_str());
      return 1;
    }
    Snapshot cur;
    std::vector<ClusterShard> shards;
    bool source_router = false;
    bool cluster_draining = false;
    if (cluster) {
      if (const auto err = parse_cluster(payload, cur, shards, source_router,
                                         cluster_draining)) {
        std::fprintf(stderr, "tmstop: bad cluster-stats payload: %s\n", err->c_str());
        return 1;
      }
    } else if (const auto err = parse_snapshot(payload, cur)) {
      std::fprintf(stderr, "tmstop: bad stats payload: %s\n", err->c_str());
      return 1;
    }
    const auto now = std::chrono::steady_clock::now();
    const double dt_s = std::chrono::duration<double>(now - last_poll).count();
    last_poll = now;
    if (have_prev && cur.requests > prev.requests) saw_traffic = true;
    const bool restarted = have_prev && restarted_since(prev, cur);
    if (cluster) {
      render_cluster(cur, shards, have_prev ? &prev : nullptr, dt_s, health, clear, restarted,
                     source_router, cluster_draining);
    } else {
      render(cur, have_prev ? &prev : nullptr, dt_s, health, clear, restarted);
    }
    prev = std::move(cur);
    have_prev = true;
    ++polls;
    if (count > 0 && polls >= count) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
  if (expect_traffic && !saw_traffic) {
    std::fprintf(stderr,
                 "tmstop: --expect-traffic, but no request-rate increase was observed "
                 "across %lld poll(s)\n",
                 polls);
    return 1;
  }
  return 0;
}
