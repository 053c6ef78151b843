// Parallel batch-compilation driver.
//
// Runs the full per-loop pipeline — compile (driver/compile.hpp: cache
// lookup, SMS/IMS/TMS on a miss, independent validation), measure,
// lower, cross-check the kernel program, optionally simulate on the
// SpMT machine and run the differential oracle — over a batch of
// (loop, config, scheduler) jobs on a work-stealing JobPool, consulting
// a content-addressed ScheduleCache so repeated sweeps hit instead of
// recompute.
//
// Determinism contract: BatchReport::to_json(/*include_volatile=*/false)
// is a pure function of the jobs and options — byte-identical across
// thread counts and cache states. Everything that legitimately varies
// between runs (wall-clock times, cache hit flags, thread count) is
// emitted only under include_volatile. Per-job randomness (simulation
// address streams, oracle streams) is derived from the batch seed and
// the job's submission index, never from a generator shared across jobs,
// so results do not depend on execution interleaving.
//
// Failure isolation: a job that fails — scheduling, validation, the
// oracle, or an exception escaping any stage — produces a JobResult with
// the failure recorded; it never poisons the rest of the batch.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "driver/schedule_cache.hpp"
#include "ir/loop.hpp"
#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"
#include "obs/counters.hpp"
#include "sched/postpass.hpp"

namespace tms::driver {

struct BatchJob {
  std::string name;        ///< report label (loop or benchmark name)
  ir::Loop loop;
  machine::SpmtConfig cfg;
  std::string scheduler = "tms";  ///< "sms", "ims" or "tms"
};

enum class JobStatus {
  kOk,
  kScheduleFail,  ///< the scheduler found no schedule
  kValidateFail,  ///< check::validate_schedule / validate_kernel_program
  kOracleFail,    ///< the differential oracle disagreed
  kError,         ///< malformed input or an exception escaped the job
};

std::string_view to_string(JobStatus s);

struct JobResult {
  std::string name;
  std::string scheduler;
  JobStatus status = JobStatus::kError;
  std::string detail;            ///< failure message; empty when ok
  sched::LoopMetrics metrics;    ///< valid when scheduling succeeded
  bool cache_hit = false;
  std::int64_t sim_cycles = -1;  ///< -1 when simulation was not requested
  std::int64_t sim_misspecs = -1;
  std::int64_t sim_sync_stalls = -1;
  double wall_ms = 0.0;          ///< volatile; excluded from canonical JSON
};

struct BatchOptions {
  int jobs = 0;                    ///< worker threads; 0 = hardware_concurrency
  bool validate = true;            ///< run check::validate_* on every schedule
  std::int64_t simulate_iterations = 0;  ///< 0 disables SpMT simulation
  bool run_oracle = false;
  std::int64_t oracle_iterations = 96;
  std::uint64_t seed = 42;         ///< batch seed; per-job streams fork from it
};

struct BatchReport {
  std::vector<JobResult> results;  ///< in submission order, always
  ScheduleCache::Stats cache;      ///< zero stats when no cache was used
  /// Observability counters accumulated by this batch's own work (the
  /// delta around run_batch, so earlier activity in the process is
  /// excluded).
  obs::CountersSnapshot counters;
  double wall_ms = 0.0;
  int threads = 0;

  int count(JobStatus s) const;

  /// Human-readable table + summary (support/table).
  std::string to_text() const;

  /// Machine-readable report. With include_volatile=false the output is
  /// byte-identical across thread counts (timings, cache hit flags and
  /// cache stats are omitted). Counters measure work actually performed,
  /// so they are cache-state-dependent (a warm cache schedules nothing);
  /// pass include_counters=false to compare reports across cache states.
  std::string to_json(bool include_volatile = true, bool include_counters = true) const;
};

/// Runs the batch. `mach` must outlive the call; `cache` may be null to
/// disable caching. Jobs execute in parallel; results land at the index
/// of their job.
BatchReport run_batch(const std::vector<BatchJob>& jobs, const machine::MachineModel& mach,
                      const BatchOptions& opts, ScheduleCache* cache);

}  // namespace tms::driver
