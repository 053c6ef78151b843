// Process-wide counter/histogram registry for scheduler observability.
//
// Every counter the pipeline maintains is declared exactly once, in the
// X-macro lists below; the registry struct, the metric catalog (name,
// unit, description) and the JSON export are all generated from the same
// list, so a counter cannot exist without catalog metadata. The doc-sync
// checker (obs/doc_sync.hpp) walks the same catalog against the table in
// docs/OBSERVABILITY.md, which is what keeps the documentation from
// rotting: adding a counter here without documenting it fails a ctest.
//
// Increments are relaxed atomics and safe from any thread. Hot loops
// (the per-slot placement trials) accumulate into plain local tallies
// and flush once per scheduling attempt, so the steady-state cost is a
// handful of atomic adds per attempt, not per slot.
//
// Counter values measure *work actually performed*: a schedule served
// from the ScheduleCache performs no placement trials, so scheduling
// counters legitimately differ between cold- and warm-cache runs. Sums
// of per-job work are order-independent, which is what makes the
// exported snapshot byte-identical across JobPool thread counts.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace tms::support {
class JsonValue;
class JsonWriter;
}

namespace tms::obs {

// clang-format off
/// X(field, name, unit, description) — plain monotone counters.
#define TMS_COUNTER_LIST(X)                                                            \
  X(driver_jobs,             "driver.jobs",             "jobs",       "batch jobs executed by driver::run_batch")                              \
  X(driver_cache_hits,       "driver.cache_hits",       "jobs",       "jobs whose schedule was served from the ScheduleCache")                 \
  X(driver_cache_misses,     "driver.cache_misses",     "jobs",       "jobs that scheduled fresh although a cache was attached")               \
  X(driver_schedules_cached, "driver.schedules_cached", "entries",    "fresh schedules inserted into the ScheduleCache")                       \
  X(sched_attempts,          "sched.attempts",          "attempts",   "fixed-threshold scheduling passes (TMS (II, C_delay, P_max) rungs plus SMS/IMS per-II tries)") \
  X(sched_attempts_feasible, "sched.attempts_feasible", "attempts",   "scheduling passes that produced a complete schedule")                   \
  X(sched_rungs_below_floor, "sched.rungs_below_floor", "attempts",   "TMS rungs answered infeasible without running: their C_delay threshold is below the memory-recurrence floor") \
  X(sched_schedules,         "sched.schedules",         "schedules",  "accepted scheduler results, all schedulers")                            \
  X(sched_slots_tried,       "sched.slots_tried",       "slots",      "candidate (node, cycle) slots examined in placement loops")             \
  X(sched_slot_reject_mrt,       "sched.slot_reject.mrt",       "slots", "slots rejected by a modulo-reservation-table conflict")              \
  X(sched_slot_reject_c_delay,   "sched.slot_reject.c_delay",   "slots", "slots rejected because a new sync delay exceeded C_delay (C1)")      \
  X(sched_slot_reject_p_max,     "sched.slot_reject.p_max",     "slots", "slots rejected because the misspeculation frequency exceeded P_max (C2)") \
  X(sched_slot_reject_headroom,  "sched.slot_reject.headroom",  "slots", "slots skipped in the successor dead-zone rows at the end of the II") \
  X(sched_window_exhausted,  "sched.window_exhausted",  "events",     "nodes whose scheduling window held no feasible slot")                   \
  X(sched_ejections,         "sched.ejections",         "nodes",      "placed nodes ejected by TMS backtracking")                              \
  X(sched_pmax_sweeps_skipped, "sched.pmax_sweeps_skipped", "sweeps",  "P_max sweeps skipped because a stricter C2-rejection-free sweep proved them identical") \
  X(sched_ii_cutoffs,        "sched.ii_cutoffs",        "sweeps",     "TMS II sweeps ended by the recurrence-floor cutoff: the incumbent sits at both floors and no larger II can beat it") \
  X(check_validations,       "check.validations",       "runs",       "independent validator runs (schedules and kernel programs)")            \
  X(check_violations,        "check.violations",        "violations", "invariant violations reported by the validator")                        \
  X(codegen_lowerings,       "codegen.lowerings",       "kernels",    "schedules lowered to kernel programs")                                  \
  X(sim_runs,                "sim.runs",                "runs",       "SpMT simulations executed")                                             \
  X(sim_squashes,            "sim.squashes",            "squashes",   "misspeculation squash events across all simulations")                   \
  X(sim_sync_stall_cycles,   "sim.sync_stall_cycles",   "cycles",     "cycles committed threads spent stalled at RECV")                        \
  X(sim_mem_stall_cycles,    "sim.mem_stall_cycles",    "cycles",     "load cycles beyond the scheduled hit latency")                          \
  X(sim_squashed_cycles,     "sim.squashed_cycles",     "cycles",     "wasted execution plus invalidation cycles of squashed threads")         \
  X(sim_send_recv_pairs,     "sim.send_recv_pairs",     "pairs",      "dynamic SEND/RECV pairs in committed threads")                          \
  X(sim_events,              "sim.events",              "events",     "events popped from the event-driven engine's clock queue (thread spawns, core wakes, squash retries)") \
  X(sim_store_records,       "sim.store_records",       "records",    "committed stores merged into the event engine's per-address store history") \
  X(sim_store_records_folded, "sim.store_records_folded", "records",  "store-history records removed by folding prefixes no later load can tell apart") \
  X(sim_sweep_points,        "sim.sweep_points",        "points",     "(workload, config) points simulated by driver::run_sim_sweep")          \
  X(sim_quick_estimates,     "sim.quick_estimates",     "runs",       "fast-path spmt::quick_estimate simulations (simulator-backed verify)")  \
  X(sim_bus_transfers,       "sim.bus_transfers",       "transfers",  "cross-core register transfers charged to the shared bus by committed threads") \
  X(sim_bus_cycles,          "sim.bus_cycles",          "cycles",     "shared-bus contention cycles added to forwarding delays (0 with the bus term off)") \
  X(policy_instances,        "policy.instances",        "policies",   "CorePolicy instantiations via policy::make_policy")                     \
  X(policy_nondefault,       "policy.nondefault",       "policies",   "make_policy calls that selected a non-modulo allocation policy")        \
  X(workloads_loops_built,   "workloads.loops_built",   "loops",      "loops materialised by workloads::build_loop")                           \
  X(trace_events_dropped,    "trace.events_dropped",    "events",     "trace events dropped because the ring buffer was full")                 \
  X(driver_cache_evictions_mem,  "driver.cache_evictions_mem",  "entries", "in-memory ScheduleCache entries evicted by the LRU capacity bound") \
  X(driver_cache_evictions_disk, "driver.cache_evictions_disk", "files",   "on-disk ScheduleCache files evicted by the max-bytes bound")        \
  X(serve_connections,       "serve.connections",       "conns",      "client connections accepted by the compile service")                    \
  X(serve_requests,          "serve.requests",          "requests",   "requests admitted into the compile-service queue")                      \
  X(serve_responses_ok,      "serve.responses_ok",      "requests",   "requests answered with a schedule")                                     \
  X(serve_responses_error,   "serve.responses_error",   "requests",   "requests answered with a structured error")                             \
  X(serve_rejected_overload, "serve.rejected_overload", "requests",   "requests refused with a retry_after error because the queue was over its high-water mark") \
  X(serve_rejected_malformed, "serve.rejected_malformed", "frames",   "malformed frames or request payloads rejected by the compile service")  \
  X(serve_deadline_missed,   "serve.deadline_missed",   "requests",   "requests cancelled or answered late because their deadline expired")    \
  X(serve_drain_refused,     "serve.drain_refused",     "requests",   "requests refused because the server was draining")                      \
  X(serve_idle_timeouts,     "serve.idle_timeouts",     "conns",      "connections closed by the idle read timeout")                           \
  X(serve_slow_requests,     "serve.slow_requests",     "requests",   "requests over the --slow-ms threshold, logged to the slow-request log") \
  X(serve_stats_requests,    "serve.stats_requests",    "requests",   "STATS/HEALTH side-channel snapshots served (never queued, never counted as compile requests)") \
  X(serve_peek_requests,     "serve.peek_requests",     "frames",     "PEEK cache probes answered on the side channel (never queued, answered during drain)") \
  X(serve_peer_fill_hits,    "serve.peer_fill_hits",    "requests",   "local cache misses satisfied by a ring sibling's cache via PEEK")       \
  X(serve_peer_fill_misses,  "serve.peer_fill_misses",  "requests",   "peer-fill attempts that found no sibling entry (unreachable peers included) and scheduled fresh") \
  X(serve_sim_verify_failures, "serve.sim_verify_failures", "requests", "responses refused because the simulator-backed verify diverged from the sequential reference") \
  X(serve_cluster_stats_requests, "serve.cluster_stats_requests", "requests", "CLUSTER_STATS side-channel snapshots served (never queued, answered during drain)") \
  X(serve_flight_requests,   "serve.flight_requests",   "requests",   "FLIGHT side-channel dumps served (never queued, answered during drain)") \
  X(serve_flight_records,    "serve.flight_records",    "records",    "per-request outcome records written into the flight-recorder ring") \
  X(serve_flight_drops,      "serve.flight_drops",      "records",    "flight-recorder records dropped because their ring slot was contended") \
  X(serve_flight_dumps,      "serve.flight_dumps",      "dumps",      "flight-recorder dumps written to disk (SIGUSR2, slow requests, drain)") \
  X(router_requests,         "router.requests",         "requests",   "compile requests accepted by the router front-end")                     \
  X(router_responses_ok,     "router.responses_ok",     "requests",   "routed requests answered with a schedule")                              \
  X(router_responses_error,  "router.responses_error",  "requests",   "routed requests answered with a structured error")                      \
  X(router_retries,          "router.retries",          "requests",   "overload-driven re-sends to the same backend after sleeping its retry_after_ms hint") \
  X(router_hedges,           "router.hedges",           "requests",   "requests moved to the next ring replica after the preferred shard stayed saturated or failed") \
  X(router_transport_errors, "router.transport_errors", "errors",     "backend connect/send/recv failures observed while forwarding")          \
  X(router_ejections,        "router.ejections",        "backends",   "backends ejected from rotation after consecutive health-probe failures") \
  X(router_readmissions,     "router.readmissions",     "backends",   "ejected backends readmitted after a successful health probe")           \
  X(router_probes,           "router.probes",           "probes",     "HEALTH probes issued by the background prober")                         \
  X(router_probe_failures,   "router.probe_failures",   "probes",     "HEALTH probes that failed (connect error, timeout, or malformed reply)") \
  X(router_no_backend,       "router.no_backend",       "requests",   "requests failed because every candidate backend was ejected or unreachable") \
  X(router_cluster_stats_fanouts, "router.cluster_stats_fanouts", "snapshots", "CLUSTER_STATS fan-outs answered by the router (one per snapshot, not per backend)") \
  X(router_cluster_fanout_errors, "router.cluster_fanout_errors", "backends", "backends that failed to answer a CLUSTER_STATS fan-out (unreachable or malformed STATS)")

/// X(field, name, unit, description) — fixed-bucket histograms
/// (buckets 0, 1, 2, 3, 4-7, 8-15, 16-31, 32+).
#define TMS_HISTOGRAM_LIST(X)                                                          \
  X(sched_ii_minus_mii,      "sched.ii_minus_mii",      "cycles",     "II inflation over MII of accepted schedules, all schedulers")           \
  X(sched_tms_c_delay,       "sched.tms_c_delay",       "cycles",     "achieved C_delay of accepted TMS schedules")                            \
  X(serve_queue_depth,       "serve.queue_depth",       "tasks",      "compile-queue depth observed at each admission")

/// X(field, name, unit, description) — log2-microsecond latency
/// histograms (TimeHistogram): bucket 0 holds 0 us, bucket b >= 1 holds
/// [2^(b-1), 2^b) us. The count-shaped TMS_HISTOGRAM_LIST buckets top
/// out at 32, which is useless for latencies; these span 1 us .. ~4 s.
#define TMS_TIME_HISTOGRAM_LIST(X)                                                     \
  X(serve_latency_queue_wait, "serve.latency.queue_wait", "us",       "per-request wait between admission and the compile worker picking it up") \
  X(serve_latency_schedule,   "serve.latency.schedule",   "us",       "per-request scheduling time (cache lookup plus any fresh scheduling pass)") \
  X(serve_latency_validate,   "serve.latency.validate",   "us",       "per-request independent-validator time")                                \
  X(serve_latency_total,      "serve.latency.total",      "us",       "per-request wall time inside CompileService::handle, admission to response") \
  X(serve_latency_sim_verify, "serve.latency.sim_verify", "us",       "per-request simulator-backed verify time (quick_estimate, --sim-verify only)") \
  X(router_latency_backend,   "router.latency.backend",   "us",       "per-forward backend round-trip time, all backends (per-backend split in tmsrouter-stats-v1)") \
  X(router_latency_total,     "router.latency.total",     "us",       "per-request wall time inside Router::handle, arrival to response")
// clang-format on

class Counter {
 public:
  void add(std::uint64_t n) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Histogram {
 public:
  static constexpr int kBuckets = 8;

  /// 0,1,2,3 map to their own buckets; then [4,8), [8,16), [16,32), [32,inf).
  static int bucket_of(std::uint64_t v);
  /// Lower bound of bucket `b` (for rendering).
  static std::uint64_t bucket_floor(int b);

  void record(std::uint64_t v) {
    b_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  std::array<std::uint64_t, kBuckets> values() const;
  /// Exact sum of recorded values (the buckets alone only bound it).
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> b_{};
  std::atomic<std::uint64_t> sum_{0};
};

/// Latency histogram: log2-microsecond buckets plus an exact sum.
/// Bucket 0 holds the value 0 (sub-microsecond); bucket b >= 1 holds
/// [2^(b-1), 2^b) us; the last bucket is open-ended. 24 buckets cover
/// 1 us up to ~4.2 s, which spans everything the compile service does.
/// The exact sum makes `sum(queue+schedule+validate) <= sum(total)`
/// checkable without bucket-rounding slop.
class TimeHistogram {
 public:
  static constexpr int kBuckets = 24;

  static int bucket_of_us(std::uint64_t us);
  /// Lower bound in microseconds of bucket `b` (for rendering).
  static std::uint64_t bucket_floor_us(int b);

  void record_us(std::uint64_t us) {
    b_[bucket_of_us(us)].fetch_add(1, std::memory_order_relaxed);
    sum_us_.fetch_add(us, std::memory_order_relaxed);
  }
  std::array<std::uint64_t, kBuckets> values() const;
  std::uint64_t sum_us() const { return sum_us_.load(std::memory_order_relaxed); }
  void reset();

 private:
  std::array<std::atomic<std::uint64_t>, kBuckets> b_{};
  std::atomic<std::uint64_t> sum_us_{0};
};

/// The registry: one member per X-macro entry.
struct Counters {
#define TMS_OBS_DECL(field, name, unit, desc) Counter field;
  TMS_COUNTER_LIST(TMS_OBS_DECL)
#undef TMS_OBS_DECL
#define TMS_OBS_DECL(field, name, unit, desc) Histogram field;
  TMS_HISTOGRAM_LIST(TMS_OBS_DECL)
#undef TMS_OBS_DECL
#define TMS_OBS_DECL(field, name, unit, desc) TimeHistogram field;
  TMS_TIME_HISTOGRAM_LIST(TMS_OBS_DECL)
#undef TMS_OBS_DECL
};

/// The process-wide registry instance.
Counters& counters();

enum class MetricKind { kCounter, kHistogram, kTimeHistogram };

struct MetricInfo {
  const char* name;
  const char* unit;
  const char* description;
  MetricKind kind;
};

/// Catalog of every registered metric — counters, then count-shaped
/// histograms, then time histograms, each in declaration order. This is
/// the authoritative list the doc-sync checker compares against
/// docs/OBSERVABILITY.md.
const std::vector<MetricInfo>& metric_catalog();

/// A point-in-time copy of every metric, aligned with metric_catalog()
/// order (counters, then histograms, then time histograms).
struct CountersSnapshot {
  std::vector<std::uint64_t> counters;
  std::vector<std::array<std::uint64_t, Histogram::kBuckets>> histograms;
  std::vector<std::uint64_t> histogram_sums;
  std::vector<std::array<std::uint64_t, TimeHistogram::kBuckets>> time_histograms;
  std::vector<std::uint64_t> time_histogram_sums_us;

  /// Value of a counter by catalog name (0 when unknown) — convenience
  /// for tests and tools; linear scan.
  std::uint64_t value(std::string_view name) const;
  /// Bucket values of a time histogram by catalog name (all-zero when
  /// unknown).
  std::array<std::uint64_t, TimeHistogram::kBuckets> time_histogram(std::string_view name) const;
  /// Total recorded count of a time histogram by catalog name.
  std::uint64_t time_histogram_count(std::string_view name) const;
  /// Exact sum in microseconds of a time histogram by catalog name.
  std::uint64_t time_histogram_sum_us(std::string_view name) const;
};

CountersSnapshot counters_snapshot();

/// after - before, member-wise. Counters are monotone, so a batch's own
/// work is the delta around it even in a process that has already run
/// other batches.
CountersSnapshot snapshot_delta(const CountersSnapshot& before, const CountersSnapshot& after);

/// into += from, member-wise. Bucket-wise histogram addition is exact,
/// so an aggregate of per-shard snapshots carries the same percentile
/// information one process observing all the traffic would have.
void snapshot_accumulate(CountersSnapshot& into, const CountersSnapshot& from);

/// Rebuilds a snapshot from the object `write_counters_json` produced —
/// typically parsed out of another process's STATS payload (the router
/// aggregating its shards). Names are matched against the local
/// catalog: unknown names are ignored and missing names read 0, so a
/// version-skewed shard degrades to zeros instead of misaligning the
/// vectors.
CountersSnapshot snapshot_from_json(const support::JsonValue& v);

/// Writes one JSON object value:
/// {"counters":{name:value,...},
///  "histograms":{name:{"buckets":[8],"count":n,"sum":s},...},
///  "time_histograms":{name:{"buckets":[24],"count":n,"sum_us":s},...}}
/// Keys are in catalog order — the output is deterministic.
void write_counters_json(support::JsonWriter& w, const CountersSnapshot& s);

/// Human-readable name/value/unit table of the non-zero metrics.
std::string counters_to_text(const CountersSnapshot& s);

/// Zeroes every counter and histogram (tests only).
void counters_reset();

}  // namespace tms::obs
