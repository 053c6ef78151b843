#include "driver/batch.hpp"

#include <chrono>
#include <cstdio>
#include <utility>

#include "check/oracle.hpp"
#include "check/validate.hpp"
#include "codegen/kernel_program.hpp"
#include "driver/compile.hpp"
#include "driver/job_pool.hpp"
#include "obs/trace.hpp"
#include "spmt/address.hpp"
#include "spmt/sim.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace tms::driver {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Deterministic per-job stream seed: a pure function of the batch seed
/// and the submission index (one generator per job — nothing is shared
/// across jobs, so the result cannot depend on scheduling interleaving).
std::uint64_t job_stream_seed(std::uint64_t batch_seed, std::size_t index) {
  support::SplitMix64 sm(batch_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return sm.next();
}

JobResult run_single(const BatchJob& job, const machine::MachineModel& mach,
                     const BatchOptions& opts, ScheduleCache* cache, std::size_t index) {
  const Clock::time_point start = Clock::now();
  // Logical position for every event this job records: one context per
  // submission index, whichever worker thread runs it — this is what
  // makes the canonical trace thread-count-invariant.
  obs::ScopedContext ctx(obs::kCtxJob, static_cast<std::int32_t>(index));
  TMS_TRACE_SPAN(span, "driver", "driver.job");
  TMS_TRACE_SPAN_ARG(span, obs::targ("name", obs::intern(job.name)),
                     obs::targ("scheduler", obs::intern(job.scheduler)),
                     obs::targ("index", index));
  obs::counters().driver_jobs.add(1);
  JobResult r;
  r.name = job.name;
  r.scheduler = job.scheduler;
  const auto finish = [&](JobStatus status, std::string detail) {
    r.status = status;
    r.detail = std::move(detail);
    r.wall_ms = ms_since(start);
    return std::move(r);
  };
  try {
    if (const auto err = job.loop.validate()) {
      return finish(JobStatus::kError, "malformed loop: " + *err);
    }

    // Cache hits are validated even with opts.validate off (compile.hpp).
    const CompileRequest in{job.loop, mach, job.cfg, job.scheduler, cache};
    const CompileResult c = compile(in, opts.validate);
    if (c.status == CompileStatus::kScheduleFail) {
      return finish(JobStatus::kScheduleFail, c.detail);
    }
    const Compiled& sl = *c.compiled;
    r.cache_hit = c.cache_hit;
    r.metrics = sched::measure(sl.schedule, job.cfg);
    if (c.status == CompileStatus::kValidateFail) {
      return finish(JobStatus::kValidateFail, c.detail);
    }

    const bool need_kernel = opts.validate || opts.simulate_iterations > 0;
    if (need_kernel) {
      const codegen::KernelProgram kp = codegen::lower_kernel(sl.schedule, job.cfg);
      if (opts.validate) {
        const check::CheckReport lowered =
            check::validate_kernel_program(kp, sl.schedule, job.cfg);
        if (!lowered.ok()) {
          return finish(JobStatus::kValidateFail, "kernel program: " + lowered.to_string());
        }
      }
      if (opts.simulate_iterations > 0) {
        const spmt::AddressStreams streams =
            spmt::default_streams(job.loop, job_stream_seed(opts.seed, index));
        spmt::SpmtOptions sopts;
        sopts.iterations = opts.simulate_iterations;
        sopts.keep_memory = false;
        const spmt::SpmtStats stats =
            spmt::run_spmt(job.loop, kp, job.cfg, streams, sopts).stats;
        r.sim_cycles = stats.total_cycles;
        r.sim_misspecs = stats.misspeculations;
        r.sim_sync_stalls = stats.sync_stall_cycles;
      }
    }

    if (opts.run_oracle) {
      check::OracleOptions oopts;
      oopts.iterations = opts.oracle_iterations;
      oopts.stream_seed = job_stream_seed(opts.seed ^ 0x07ac1e0ULL, index);
      const check::OracleReport oracle =
          check::run_differential_oracle(job.loop, sl.schedule, job.cfg, oopts);
      if (!oracle.ok()) return finish(JobStatus::kOracleFail, "oracle: " + oracle.to_string());
    }
    return finish(JobStatus::kOk, {});
  } catch (const std::exception& ex) {
    return finish(JobStatus::kError, ex.what());
  } catch (...) {
    return finish(JobStatus::kError, "unknown exception");
  }
}

void emit_result(support::JsonWriter& w, const JobResult& r, bool include_volatile) {
  w.begin_object();
  w.member("name", r.name);
  w.member("scheduler", r.scheduler);
  w.member("status", std::string(to_string(r.status)));
  w.member("detail", r.detail);
  const bool scheduled = r.status == JobStatus::kOk || r.status == JobStatus::kValidateFail ||
                         r.status == JobStatus::kOracleFail;
  if (scheduled) {
    w.key("metrics").begin_object();
    w.member("instrs", r.metrics.num_instrs);
    w.member("mii", r.metrics.mii);
    w.member("ii", r.metrics.ii);
    w.member("max_live", r.metrics.max_live);
    w.member("c_delay", r.metrics.c_delay);
    w.member("stages", r.metrics.stages);
    w.member("copies", r.metrics.copies);
    w.member("comm_pairs", r.metrics.comm_pairs);
    w.member("misspec_probability", r.metrics.misspec_probability);
    w.end_object();
  } else {
    w.key("metrics").value_null();
  }
  if (r.sim_cycles >= 0) {
    w.key("sim").begin_object();
    w.member("cycles", r.sim_cycles);
    w.member("misspeculations", r.sim_misspecs);
    w.member("sync_stall_cycles", r.sim_sync_stalls);
    w.end_object();
  }
  if (include_volatile) {
    w.member("cache_hit", r.cache_hit);
    w.member("wall_ms", r.wall_ms);
  }
  w.end_object();
}

}  // namespace

std::string_view to_string(JobStatus s) {
  switch (s) {
    case JobStatus::kOk: return "ok";
    case JobStatus::kScheduleFail: return "schedule-fail";
    case JobStatus::kValidateFail: return "validate-fail";
    case JobStatus::kOracleFail: return "oracle-fail";
    case JobStatus::kError: return "error";
  }
  return "?";
}

int BatchReport::count(JobStatus s) const {
  int n = 0;
  for (const JobResult& r : results) {
    if (r.status == s) ++n;
  }
  return n;
}

std::string BatchReport::to_text() const {
  support::TextTable t({"Name", "Sched", "Status", "II", "MII", "MaxLive", "Cdelay", "P_M",
                        "Cycles", "Cache"});
  using TT = support::TextTable;
  for (const JobResult& r : results) {
    const bool scheduled = r.status != JobStatus::kScheduleFail && r.status != JobStatus::kError;
    t.add_row({r.name, r.scheduler, std::string(to_string(r.status)),
               scheduled ? std::to_string(r.metrics.ii) : "-",
               scheduled ? std::to_string(r.metrics.mii) : "-",
               scheduled ? std::to_string(r.metrics.max_live) : "-",
               scheduled ? std::to_string(r.metrics.c_delay) : "-",
               scheduled ? TT::num(r.metrics.misspec_probability, 4) : "-",
               r.sim_cycles >= 0 ? std::to_string(r.sim_cycles) : "-",
               r.cache_hit ? "hit" : "miss"});
  }
  std::string out = t.render();
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "\n%zu job(s): %d ok, %d schedule-fail, %d validate-fail, %d oracle-fail, "
                "%d error; %d thread(s), %.1f ms\n",
                results.size(), count(JobStatus::kOk), count(JobStatus::kScheduleFail),
                count(JobStatus::kValidateFail), count(JobStatus::kOracleFail),
                count(JobStatus::kError), threads, wall_ms);
  out += buf;
  const std::uint64_t probes = cache.hits() + cache.misses;
  if (probes > 0) {
    std::snprintf(buf, sizeof buf,
                  "cache: %.1f%% hit rate (%llu memory + %llu disk hit(s), %llu miss(es), "
                  "%llu eviction(s), %llu corrupt entr%s rejected)\n",
                  100.0 * cache.hit_rate(), (unsigned long long)cache.memory_hits,
                  (unsigned long long)cache.disk_hits, (unsigned long long)cache.misses,
                  (unsigned long long)cache.evictions, (unsigned long long)cache.disk_rejects,
                  cache.disk_rejects == 1 ? "y" : "ies");
    out += buf;
  }
  return out;
}

std::string BatchReport::to_json(bool include_volatile, bool include_counters) const {
  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "tmsbatch-v1");
  w.key("jobs").begin_array();
  for (const JobResult& r : results) emit_result(w, r, include_volatile);
  w.end_array();

  support::RunningStat ii, c_delay, misspec;
  for (const JobResult& r : results) {
    if (r.status != JobStatus::kOk) continue;
    ii.add(r.metrics.ii);
    c_delay.add(r.metrics.c_delay);
    misspec.add(r.metrics.misspec_probability);
  }
  w.key("summary").begin_object();
  w.member("jobs", static_cast<std::int64_t>(results.size()));
  w.member("ok", count(JobStatus::kOk));
  w.member("schedule_fail", count(JobStatus::kScheduleFail));
  w.member("validate_fail", count(JobStatus::kValidateFail));
  w.member("oracle_fail", count(JobStatus::kOracleFail));
  w.member("error", count(JobStatus::kError));
  w.member("ii_mean", ii.mean());
  w.member("ii_max", ii.max());
  w.member("c_delay_mean", c_delay.mean());
  w.member("c_delay_max", c_delay.max());
  w.member("misspec_probability_mean", misspec.mean());
  w.end_object();

  if (include_counters) {
    w.key("observability");
    obs::write_counters_json(w, counters);
  }

  if (include_volatile) {
    w.key("timing").begin_object();
    w.member("wall_ms", wall_ms);
    w.member("threads", threads);
    w.end_object();
    w.key("cache").begin_object();
    w.member("memory_hits", cache.memory_hits);
    w.member("disk_hits", cache.disk_hits);
    w.member("misses", cache.misses);
    w.member("inserts", cache.inserts);
    w.member("evictions", cache.evictions);
    w.member("disk_rejects", cache.disk_rejects);
    w.member("hit_rate", cache.hit_rate());
    w.end_object();
  }
  w.end_object();
  return w.str();
}

BatchReport run_batch(const std::vector<BatchJob>& jobs, const machine::MachineModel& mach,
                      const BatchOptions& opts, ScheduleCache* cache) {
  const Clock::time_point start = Clock::now();
  BatchReport report;
  report.results.resize(jobs.size());

  JobPool pool(opts.jobs);
  report.threads = pool.threads();
  const obs::CountersSnapshot before = obs::counters_snapshot();
  pool.run(jobs.size(), [&](std::size_t i) {
    report.results[i] = run_single(jobs[i], mach, opts, cache, i);
  });
  report.counters = obs::snapshot_delta(before, obs::counters_snapshot());

  if (cache != nullptr) report.cache = cache->stats();
  report.wall_ms = ms_since(start);
  return report;
}

}  // namespace tms::driver
