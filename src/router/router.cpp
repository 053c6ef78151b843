#include "router/router.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "driver/schedule_cache.hpp"
#include "obs/prometheus.hpp"
#include "obs/trace.hpp"
#include "serve/message.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/parse.hpp"

namespace tms::router {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t us_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count();
}

/// "host:port" (numeric port, no '/') is TCP; anything else is a Unix
/// socket path.
bool split_tcp_address(const std::string& address, std::string& host, int& port) {
  if (address.find('/') != std::string::npos) return false;
  std::string h;
  int p = 0;
  if (!support::parse_host_port(address, h, p) || h.empty() || p < 1 || p > 65535) return false;
  host = std::move(h);
  port = p;
  return true;
}

std::optional<std::string> connect_client(serve::Client& client, const std::string& address,
                                          int timeout_ms) {
  std::string host;
  int port = 0;
  if (split_tcp_address(address, host, port)) {
    return client.connect_tcp(host, port, timeout_ms);
  }
  return client.connect_unix(address, timeout_ms);
}

}  // namespace

Router::Router(const machine::MachineModel& mach, RouterOptions opts)
    : mach_(mach), opts_(std::move(opts)), ring_(opts_.vnodes), started_(Clock::now()) {
  for (const std::string& address : opts_.backends) {
    if (backend(address) != nullptr) continue;  // ignore duplicates
    auto b = std::make_unique<Backend>();
    b->address = address;
    backends_.push_back(std::move(b));
    ring_.add(address);
  }
  int threads = opts_.probe_threads;
  if (threads <= 0) threads = std::min<int>(4, std::max<int>(1, static_cast<int>(backends_.size())));
  probe_pool_ = std::make_unique<driver::TaskPool>(threads, std::max<std::size_t>(1, backends_.size()));
}

Router::~Router() { stop(); }

std::optional<std::string> Router::start() {
  if (backends_.empty()) return std::string("no backends configured");
  if (prober_.joinable()) return std::string("already started");
  probe_now();
  {
    const std::lock_guard<std::mutex> lock(prober_mu_);
    prober_stop_ = false;
  }
  if (opts_.probe_interval_ms > 0) {
    prober_ = std::thread([this] { prober_loop(); });
  }
  return std::nullopt;
}

void Router::stop() {
  {
    const std::lock_guard<std::mutex> lock(prober_mu_);
    prober_stop_ = true;
  }
  prober_cv_.notify_all();
  if (prober_.joinable()) prober_.join();
  for (auto& b : backends_) {
    const std::lock_guard<std::mutex> lock(b->pool_mu);
    b->idle.clear();
  }
}

Router::Backend* Router::backend(const std::string& address) {
  for (auto& b : backends_) {
    if (b->address == address) return b.get();
  }
  return nullptr;
}

const Router::Backend* Router::backend(const std::string& address) const {
  for (const auto& b : backends_) {
    if (b->address == address) return b.get();
  }
  return nullptr;
}

std::unique_ptr<serve::Client> Router::acquire(Backend& b, std::string* error) {
  {
    const std::lock_guard<std::mutex> lock(b.pool_mu);
    if (!b.idle.empty()) {
      auto client = std::move(b.idle.back());
      b.idle.pop_back();
      return client;
    }
  }
  auto client = std::make_unique<serve::Client>();
  if (auto err = connect_client(*client, b.address, opts_.backend_timeout_ms)) {
    if (error != nullptr) *error = std::move(*err);
    return nullptr;
  }
  return client;
}

void Router::release(Backend& b, std::unique_ptr<serve::Client> client) {
  if (client == nullptr || !client->connected()) return;
  const std::lock_guard<std::mutex> lock(b.pool_mu);
  if (b.idle.size() < opts_.pool_per_backend) b.idle.push_back(std::move(client));
}

void Router::mark_failure(Backend& b) {
  const int failures = b.consecutive_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (failures >= opts_.eject_after &&
      b.healthy.exchange(false, std::memory_order_acq_rel)) {
    obs::counters().router_ejections.add(1);
  }
}

void Router::mark_success(Backend& b) {
  b.consecutive_failures.store(0, std::memory_order_release);
  if (!b.healthy.exchange(true, std::memory_order_acq_rel)) {
    obs::counters().router_readmissions.add(1);
  }
}

std::optional<serve::Response> Router::forward(Backend& b, const serve::Request& req) {
  // A pooled connection may have been closed under us (backend idle
  // timeout, restart): one fresh-connection retry before the error is
  // real. `fresh` is true once the client cannot be stale.
  bool fresh;
  for (int attempt = 0; attempt < 2; ++attempt) {
    fresh = attempt > 0;
    std::string connect_error;
    std::unique_ptr<serve::Client> client;
    if (fresh) {
      client = std::make_unique<serve::Client>();
      if (auto err = connect_client(*client, b.address, opts_.backend_timeout_ms)) {
        connect_error = std::move(*err);
        client = nullptr;
      }
    } else {
      client = acquire(b, &connect_error);
      // acquire() only connects fresh when the pool is empty; treat a
      // connect failure as final rather than retrying the same connect.
      if (client == nullptr) fresh = true;
    }
    if (client == nullptr) {
      if (!fresh) continue;
      obs::counters().router_transport_errors.add(1);
      b.transport_errors.fetch_add(1, std::memory_order_relaxed);
      return std::nullopt;
    }

    const Clock::time_point t0 = Clock::now();
    auto result = client->compile(req);
    if (auto* resp = std::get_if<serve::Response>(&result)) {
      const auto us = static_cast<std::uint64_t>(us_since(t0));
      b.latency.record_us(us);
      obs::counters().router_latency_backend.record_us(us);
      release(b, std::move(client));
      return std::move(*resp);
    }
    if (fresh) break;
  }
  obs::counters().router_transport_errors.add(1);
  b.transport_errors.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

serve::Response Router::handle(const serve::Request& req, std::string_view /*peer*/) {
  const Clock::time_point start = Clock::now();
  obs::Counters& c = obs::counters();
  c.router_requests.add(1);

  // Root of the cluster trace. A client-supplied context is continued;
  // otherwise the router mints a fresh trace id, so every backend hop
  // below is stitchable even when the client did not ask for tracing.
  // The ids are echoed back only when the client sent a trace_id —
  // pre-change clients never see the response fields.
  const bool client_traced = req.trace_id != 0;
  obs::ScopedTraceContext tctx(client_traced ? req.trace_id : obs::mint_id(),
                               req.parent_span_id);
  TMS_TRACE_SPAN(span, "router", "router.request");

  const auto finish = [&](serve::Response resp) {
    c.router_latency_total.record_us(static_cast<std::uint64_t>(us_since(start)));
    if (resp.ok) {
      c.router_responses_ok.add(1);
    } else {
      c.router_responses_error.add(1);
    }
    resp.trace_id = client_traced ? tctx.trace_id() : 0;
    resp.span_id = client_traced ? tctx.span_id() : 0;
    // A shard's answer already echoes the id (or the one it minted); the
    // errors the router makes itself echo the client's.
    if (resp.request_id.empty()) resp.request_id = req.request_id;
    return resp;
  };

  if (draining()) {
    return finish(serve::make_error(req.id, serve::ErrorCode::kShutdown, "router is draining"));
  }

  // The same content hash the shard's ScheduleCache will use — cache
  // affinity is the entire routing policy. The router sees only what the
  // request spells out, not a shard's --policy/--bus-* defaults.
  const std::uint64_t key =
      driver::ScheduleCache::key(req.loop, mach_, serve::request_config(req), req.scheduler);
  const std::vector<std::string> candidates =
      ring_.successors(key, static_cast<std::size_t>(1 + std::max(0, opts_.hedges)));

  // The request forwarded to backends always carries the trace context
  // (the leg span's id becomes the backend's parent), so backend-side
  // serve.* spans stitch under this router's leg spans in one file.
  serve::Request fwd = req;
  fwd.trace_id = tctx.trace_id();

  bool saw_overload = false;
  bool tried_any = false;
  for (const std::string& name : candidates) {
    Backend* b = backend(name);
    if (b == nullptr) continue;
    if (!b->healthy.load(std::memory_order_acquire)) continue;
    const bool is_hedge = tried_any;
    if (tried_any) c.router_hedges.add(1);
    tried_any = true;

    bool hedge = false;
    for (int attempt = 0; !hedge; ++attempt) {
      std::optional<serve::Response> resp;
      {
        // One span per wire attempt: first try, same-backend overload
        // retries, and hedge legs each get their own.
        TMS_TRACE_SPAN(leg_span, "router", "router.forward");
        TMS_TRACE_SPAN_ARG(leg_span, obs::targ("backend", obs::intern(name)),
                           obs::targ("attempt", attempt),
                           obs::targ("hedge", std::int64_t{is_hedge ? 1 : 0}));
        const std::uint64_t leg_id = TMS_TRACE_SPAN_ID(leg_span);
        fwd.parent_span_id = leg_id != 0 ? leg_id : tctx.span_id();
        resp = forward(*b, fwd);
      }
      if (!resp.has_value()) {
        // Transport failure: counts toward ejection so a killed
        // backend stops receiving traffic ahead of the next probe.
        mark_failure(*b);
        hedge = true;
        break;
      }
      mark_success(*b);
      if (!resp->ok && resp->code == serve::ErrorCode::kOverload) {
        saw_overload = true;
        if (attempt >= opts_.retries) {
          hedge = true;  // shard stayed saturated; try the next replica
          break;
        }
        c.router_retries.add(1);
        const std::int64_t sleep_ms =
            std::clamp<std::int64_t>(resp->retry_after_ms, 1, opts_.retry_sleep_cap_ms);
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
        continue;
      }
      if (!resp->ok && resp->code == serve::ErrorCode::kShutdown) {
        // Draining backend: stop sending it work, let the prober eject
        // it, and answer from a replica.
        hedge = true;
        break;
      }
      b->forwarded.fetch_add(1, std::memory_order_relaxed);
      return finish(std::move(*resp));
    }
  }

  if (saw_overload) {
    return finish(serve::make_error(req.id, serve::ErrorCode::kOverload,
                                    "every candidate shard is saturated",
                                    opts_.retry_after_ms));
  }
  c.router_no_backend.add(1);
  return finish(serve::make_error(req.id, serve::ErrorCode::kInternal,
                                  "no healthy backend for this key"));
}

bool Router::probe_one(Backend& b) {
  obs::counters().router_probes.add(1);
  serve::Client client;
  if (connect_client(client, b.address, opts_.probe_timeout_ms).has_value()) return false;
  std::string line;
  if (client.health(line).has_value()) return false;
  // A draining backend reports "draining ..." — it refuses compile
  // work, so for routing purposes it is down.
  return line.rfind("ok", 0) == 0;
}

void Router::probe_now() {
  std::vector<std::shared_ptr<driver::TaskPool::Task>> tasks(backends_.size());
  std::vector<char> up(backends_.size(), 0);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    Backend* b = backends_[i].get();
    char* out = &up[i];
    tasks[i] = probe_pool_->try_submit([this, b, out] { *out = probe_one(*b) ? 1 : 0; });
    if (tasks[i] == nullptr) *out = probe_one(*b) ? 1 : 0;  // pool full: probe inline
  }
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (tasks[i] != nullptr) tasks[i]->wait();
    if (up[i] != 0) {
      mark_success(*backends_[i]);
    } else {
      obs::counters().router_probe_failures.add(1);
      mark_failure(*backends_[i]);
    }
  }
}

void Router::prober_loop() {
  std::unique_lock<std::mutex> lock(prober_mu_);
  while (!prober_stop_) {
    const auto interval = std::chrono::milliseconds(std::max<std::int64_t>(1, opts_.probe_interval_ms));
    if (prober_cv_.wait_for(lock, interval, [this] { return prober_stop_; })) break;
    lock.unlock();
    probe_now();
    lock.lock();
  }
}

std::size_t Router::healthy_count() const {
  std::size_t n = 0;
  for (const auto& b : backends_) {
    if (b->healthy.load(std::memory_order_acquire)) ++n;
  }
  return n;
}

std::vector<Router::BackendSnapshot> Router::backends_snapshot() const {
  std::vector<BackendSnapshot> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) {
    BackendSnapshot s;
    s.address = b->address;
    s.healthy = b->healthy.load(std::memory_order_acquire);
    s.consecutive_failures = b->consecutive_failures.load(std::memory_order_acquire);
    s.forwarded = b->forwarded.load(std::memory_order_relaxed);
    s.transport_errors = b->transport_errors.load(std::memory_order_relaxed);
    std::uint64_t count = 0;
    for (const std::uint64_t v : b->latency.values()) count += v;
    s.latency_count = count;
    s.latency_sum_us = b->latency.sum_us();
    out.push_back(std::move(s));
  }
  return out;
}

std::string Router::stats_json() const {
  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "tmsrouter-stats-v1");
  w.member("uptime_ms",
           std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - started_).count());
  w.member("draining", draining());
  w.member("backends_total", static_cast<std::uint64_t>(backends_.size()));
  w.member("backends_healthy", static_cast<std::uint64_t>(healthy_count()));
  w.key("backends");
  w.begin_array();
  for (const BackendSnapshot& s : backends_snapshot()) {
    w.begin_object();
    w.member("address", s.address);
    w.member("healthy", s.healthy);
    w.member("consecutive_failures", s.consecutive_failures);
    w.member("forwarded", s.forwarded);
    w.member("transport_errors", s.transport_errors);
    w.key("latency");
    w.begin_object();
    w.member("count", s.latency_count);
    w.member("sum_us", s.latency_sum_us);
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("observability");
  obs::write_counters_json(w, obs::counters_snapshot());
  w.end_object();
  return w.str();
}

std::vector<Router::ShardStats> Router::fetch_shard_stats() const {
  // Fresh connection per backend on the probe timeout: the pooled
  // forward connections stay dedicated to compile traffic, and one hung
  // backend bounds the snapshot delay at probe_timeout_ms, not the
  // 30s forward timeout. Ejected and draining backends are still asked
  // — STATS is a side channel they keep answering.
  std::vector<ShardStats> out;
  out.reserve(backends_.size());
  for (const auto& b : backends_) {
    ShardStats s;
    s.address = b->address;
    s.healthy = b->healthy.load(std::memory_order_acquire);
    s.consecutive_failures = b->consecutive_failures.load(std::memory_order_acquire);
    serve::Client client;
    if (auto err = connect_client(client, b->address, opts_.probe_timeout_ms)) {
      s.error = std::move(*err);
    } else if (auto stats_err = client.stats(s.raw_json)) {
      s.error = std::move(*stats_err);
    } else {
      auto parsed = support::parse_json(s.raw_json);
      if (auto* perr = std::get_if<std::string>(&parsed)) {
        s.error = "malformed stats payload: " + *perr;
        s.raw_json.clear();
      } else {
        const support::JsonValue& v = std::get<support::JsonValue>(parsed);
        const support::JsonValue* observability = v.find("observability");
        if (observability == nullptr) {
          s.error = "stats payload has no observability section";
          s.raw_json.clear();
        } else {
          s.snapshot = obs::snapshot_from_json(*observability);
          s.ok = true;
        }
      }
    }
    if (!s.ok) obs::counters().router_cluster_fanout_errors.add(1);
    out.push_back(std::move(s));
  }
  return out;
}

std::string Router::cluster_stats_json() const {
  obs::counters().router_cluster_stats_fanouts.add(1);
  const std::vector<ShardStats> shards = fetch_shard_stats();

  obs::CountersSnapshot aggregate;
  std::uint64_t shards_ok = 0;
  for (const ShardStats& s : shards) {
    if (!s.ok) continue;
    ++shards_ok;
    obs::snapshot_accumulate(aggregate, s.snapshot);
  }

  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "cluster-stats-v1");
  w.member("source", "tmsrouter");
  w.member("draining", draining());
  w.member("shards_total", static_cast<std::uint64_t>(shards.size()));
  w.member("shards_ok", shards_ok);
  w.key("shards");
  w.begin_array();
  for (const ShardStats& s : shards) {
    w.begin_object();
    w.member("address", s.address);
    w.member("healthy", s.healthy);
    w.member("consecutive_failures", s.consecutive_failures);
    w.member("ok", s.ok);
    if (!s.ok) {
      w.member("error", s.error);
    } else {
      w.key("stats").raw_value(s.raw_json);
    }
    w.end_object();
  }
  w.end_array();
  w.key("aggregate");
  obs::write_counters_json(w, aggregate);
  w.end_object();
  return w.str();
}

std::string Router::cluster_prometheus_text() const {
  obs::counters().router_cluster_stats_fanouts.add(1);
  std::vector<std::pair<std::string, obs::CountersSnapshot>> labelled;
  labelled.emplace_back("router", obs::counters_snapshot());
  for (ShardStats& s : fetch_shard_stats()) {
    if (!s.ok) continue;  // unreachable shards are visible in cluster_stats_json
    labelled.emplace_back(std::move(s.address), std::move(s.snapshot));
  }
  return obs::write_prometheus_text_sharded(labelled);
}

std::string Router::health_line() const {
  const bool d = draining();
  std::string out = d ? "draining" : "ok";
  out += " uptime_ms=" +
         std::to_string(
             std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - started_).count());
  out += " backends=" + std::to_string(backends_.size());
  out += " healthy=" + std::to_string(healthy_count());
  out += " draining=";
  out += d ? '1' : '0';
  return out;
}

}  // namespace tms::router
