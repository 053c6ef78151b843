// The compile service: admission control, deadlines, and the pipeline.
//
// CompileService is the transport-independent heart of tmsd. A
// connection handler calls handle(request) and gets a Response back;
// everything between — admission against a bounded queue, dispatch onto
// a persistent driver::TaskPool, per-request deadline handling with
// cooperative cancellation, the compile pipeline shared with the batch
// driver (driver/compile.hpp: the process-wide ScheduleCache, peer fill,
// validation), and counter accounting — lives here, so it is testable
// without a socket in sight.
//
// Admission control is deliberate, not incidental (Yavits et al.: the
// synchronisation at the sequential service boundary is where multicore
// scaling dies): the queue's high-water mark is a hard bound, and an
// over-limit request is answered immediately with a kOverload error
// carrying a retry_after_ms hint — the server never queues unboundedly
// and never blocks the connection thread on a full queue.
//
// Deadlines are cooperative. A request that expires while still queued
// is cancelled outright (its pipeline never runs); once running, the
// pipeline checks the deadline between stages (before scheduling, after
// scheduling, after validation) and abandons the remaining work. The
// scheduler itself is not interruptible — the check granularity is a
// pipeline stage, which for every workload in the tree is milliseconds.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/compile.hpp"
#include "driver/job_pool.hpp"
#include "driver/schedule_cache.hpp"
#include "machine/machine.hpp"
#include "obs/flight.hpp"
#include "serve/handler.hpp"
#include "serve/message.hpp"

namespace tms::serve {

struct ServiceOptions {
  int threads = 0;                  ///< compile workers; 0 = hardware_concurrency
  std::size_t queue_capacity = 64;  ///< admission high-water mark
  std::int64_t retry_after_ms = 100;  ///< backoff hint in overload responses
  bool validate = true;             ///< run check::validate_schedule on every result
  /// Slow-request log threshold in milliseconds: a request whose total
  /// handle() time is >= slow_ms gets one canonical-JSON line in the
  /// slow log. -1 disables; 0 logs every request.
  std::int64_t slow_ms = -1;
  /// Destination for slow-request lines; nullptr = stderr. Not owned.
  std::FILE* slow_log = nullptr;
  /// Consulted on a local cache miss, before scheduling fresh. A hit is
  /// validated exactly like a local cache hit and inserted into the
  /// local cache (counted in serve.peer_fill_hits / _misses).
  driver::PeerFillFn peer_fill;
  /// Simulator-backed verification (tmsd --sim-verify): after the
  /// validator passes, lower the kernel and run spmt::quick_estimate;
  /// the response is refused (kValidateFail) unless the simulated
  /// committed state matches the sequential reference. Time lands in
  /// serve.latency.sim_verify, refusals in serve.sim_verify_failures.
  bool sim_verify = false;
  /// Iterations for the sim-verify run; 0 = quick_estimate's auto size
  /// (max(32, 8*ncore) capped at 256).
  std::int64_t sim_verify_iterations = 0;
  /// Server-side defaults for the core-allocation policy and shared-bus
  /// machine terms (tmsd --policy / --bus-*); see serve::request_config
  /// for how a request overrides them. Only policy, policy_stride,
  /// policy_block, bus_bytes_per_transfer and bus_bytes_per_cycle are
  /// read; every other field, ncore included, is ignored.
  machine::SpmtConfig machine_defaults;
  /// Flight recorder the service writes one outcome record into per
  /// pipeline run (docs/SERVING.md, tmsd-flight-v1). Not owned; nullptr
  /// disables recording and makes the FLIGHT verb answer an empty dump.
  obs::FlightRecorder* flight = nullptr;
  /// Invoked (on the connection thread, after the slow log line) for
  /// every request at or over slow_ms. tmsd uses it to dump the flight
  /// recorder next to the metrics dump; rate limiting is the callee's
  /// job. Must be thread-safe.
  std::function<void()> on_slow;
};

/// The peer-fill hook tmsd --peer and router::LocalCluster install: PEEK
/// each Unix socket in `peers`, in order. One fresh connection per probe
/// keeps the hook trivially thread-safe; a dead peer answers with a fast
/// connect error and counts as a miss.
driver::PeerFillFn peek_peers(std::vector<std::string> peers, int timeout_ms);

class CompileService : public Handler {
 public:
  /// `mach` must outlive the service; `cache` may be null (no caching)
  /// and is shared — the whole point — so it must outlive the service
  /// too.
  CompileService(const machine::MachineModel& mach, driver::ScheduleCache* cache,
                 ServiceOptions opts);
  ~CompileService();

  /// Admission + synchronous wait; safe from any number of connection
  /// threads concurrently. Always returns a response (never throws).
  /// `peer` (transport-provided, e.g. "unix" or "127.0.0.1:4321") only
  /// feeds the slow-request log. The response always carries the
  /// request's request_id, or a server-minted "srv-<n>" when the client
  /// sent none.
  Response handle(const Request& req, std::string_view peer = {}) override;

  /// Refuse new compile requests from now on; in-flight requests
  /// complete. STATS/HEALTH snapshots keep being answered.
  void begin_drain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// begin_drain + wait for the queue to empty and workers to exit.
  void shutdown();

  std::size_t queue_depth() const { return pool_.queue_depth(); }
  int in_flight() const { return in_flight_.load(std::memory_order_acquire); }
  std::int64_t uptime_ms() const;
  const ServiceOptions& options() const { return opts_; }
  driver::ScheduleCache* cache() const { return cache_; }

  /// The STATS payload: one canonical-JSON object — schema marker,
  /// uptime/queue/in-flight/drain gauges, and the full counter-registry
  /// snapshot under "observability". Cheap (no compile work, never
  /// queued) and answered even while draining.
  std::string stats_json() const override;

  /// The HEALTH payload: one line, first token "ok" or "draining",
  /// then `uptime_ms=N queue_depth=N in_flight=N draining=0|1`.
  std::string health_line() const override;

  /// The PEEK_REPLY payload: a pure cache lookup (hit or miss), never
  /// compile work — a peer's probe must not recurse into peer-fill or
  /// scheduling. Malformed probes answer a well-formed miss.
  std::string peek_reply(std::string_view payload) override;

  /// The FLIGHT_REPLY payload: the flight recorder's tmsd-flight-v1
  /// dump (well-formed empty dump when no recorder is attached).
  std::string flight_json() const override;

  std::int64_t retry_after_ms() const override { return opts_.retry_after_ms; }

  /// Test hook: the underlying pool, for deterministically occupying
  /// workers (see tests/serve_test.cpp).
  driver::TaskPool& pool() { return pool_; }

 private:
  Response admit(const Request& req, const std::string& request_id,
                 std::chrono::steady_clock::time_point start,
                 std::chrono::steady_clock::time_point deadline, bool has_deadline,
                 bool& pipeline_ran);
  Response compile(const Request& req, const machine::SpmtConfig& cfg,
                   const std::string& request_id, std::int64_t queue_us,
                   std::chrono::steady_clock::time_point start,
                   std::chrono::steady_clock::time_point deadline, bool has_deadline) const;
  void log_slow(const Request& req, const Response& resp, std::string_view peer);

  const machine::MachineModel& mach_;
  driver::ScheduleCache* cache_;
  ServiceOptions opts_;
  std::atomic<bool> draining_{false};
  std::atomic<int> in_flight_{0};
  std::atomic<std::uint64_t> minted_ids_{0};
  const std::chrono::steady_clock::time_point started_;
  std::mutex slow_log_mu_;
  driver::TaskPool pool_;
};

}  // namespace tms::serve
