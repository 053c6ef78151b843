// compile_suite: the whole SPEC FP2000 suite (Table 2's 778 loops) plus
// the 8 classic kernels, compiled by driver::run_batch on one worker with
// validation on and a short SpMT simulation per loop (the tmsbatch
// --simulate path).
//
// Inputs: the suite as loop text. Seed 0 is the canonical suite; any other
// seed renumbers each loop's instructions (relabel), which keeps every
// scheduling problem's size and shape and changes node-id tie-breaks, and
// shuffles the order of the jobs.
// Set-up: parsing the text into batch jobs. Timed phase: whole passes of
// run_batch, at least one, until --seconds have elapsed.
//
// The traced run performs each job's stages itself, in the order
// driver/batch.cpp runs them, with a span around every call.
#include <cstdio>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "check/validate.hpp"
#include "codegen/kernel_program.hpp"
#include "common.hpp"
#include "cost/cost_model.hpp"
#include "driver/batch.hpp"
#include "ir/textio.hpp"
#include "machine/machine.hpp"
#include "obs/counters.hpp"
#include "sched/mii.hpp"
#include "sched/order.hpp"
#include "sched/postpass.hpp"
#include "sched/tms.hpp"
#include "spmt/address.hpp"
#include "spmt/sim.hpp"
#include "support/rng.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_suite.hpp"

namespace tmsperf {
namespace {

using namespace tms;

constexpr std::int64_t kSimIterations = 200;  ///< the short per-loop simulation
/// 21 parses take about 2 s, longer than the host's short bursts of interference.
constexpr int kSetupReps = 21;

struct SuiteText {
  std::vector<std::string> texts;  ///< one loop per entry, as it arrives
  std::uint64_t digest = 0;        ///< over the texts
  std::uint64_t canonical_digest = 0;  ///< the same loops before relabelling
};

SuiteText make_inputs(std::uint64_t seed, bool small) {
  std::vector<ir::Loop> loops;
  for (const workloads::BenchmarkSpec& spec : workloads::spec_fp2000_suite()) {
    for (ir::Loop& l : workloads::generate_benchmark(spec)) loops.push_back(std::move(l));
  }
  for (workloads::Kernel& k : workloads::classic_kernels()) loops.push_back(std::move(k.loop));
  SuiteText in;
  in.digest = digest("");
  in.canonical_digest = in.digest;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < loops.size(); ++i) {
    // --small keeps every 24th loop: all benchmarks, a tenth of the work.
    if (small && i % 24 != 0) continue;
    in.canonical_digest = digest(ir::serialise_loop(loops[i]), in.canonical_digest);
    order.push_back(i);
  }
  // The suite lists each benchmark's loops together, so in canonical order
  // the largest ones (lucas) run back to back and the per-job latency
  // quantiles sample the host during one stretch of the pass. Shuffled,
  // each quantile samples the whole pass, as the throughput does.
  if (seed != 0) support::Rng(mix_seed(seed, 0x0de7)).shuffle(order);
  for (const std::size_t i : order) {
    in.texts.push_back(seed == 0 ? ir::serialise_loop(loops[i])
                                 : ir::serialise_loop(relabel(loops[i], mix_seed(seed, i))));
    in.digest = digest(in.texts.back(), in.digest);
  }
  return in;
}

/// Parses the suite text into batch jobs; parse errors become failures.
std::vector<driver::BatchJob> parse_jobs(const SuiteText& in, Report& r, Tracer* tr) {
  std::vector<driver::BatchJob> jobs;
  jobs.reserve(in.texts.size());
  for (std::size_t i = 0; i < in.texts.size(); ++i) {
    std::variant<ir::Loop, ir::ParseError> parsed;
    {
      Tracer::Scope s(tr, "ir.parse_loop_string", static_cast<std::int64_t>(i));
      parsed = ir::parse_loop_string(in.texts[i]);
    }
    if (auto* err = std::get_if<ir::ParseError>(&parsed)) {
      r.fail("parse loop " + std::to_string(i) + ": " + err->message);
      continue;
    }
    driver::BatchJob job;
    job.loop = std::move(std::get<ir::Loop>(parsed));
    job.name = job.loop.name();
    jobs.push_back(std::move(job));
  }
  return jobs;
}

/// The per-job simulation stream seed driver::run_batch derives from the
/// batch seed and the submission index, so the traced pass simulates the
/// same address streams.
std::uint64_t job_stream_seed(std::uint64_t batch_seed, std::size_t index) {
  support::SplitMix64 sm(batch_seed ^ (0x9e3779b97f4a7c15ULL * (index + 1)));
  return sm.next();
}

struct PassSummary {
  double f_geomean = 0.0;
  double sim_cycles_per_iter = 0.0;
  std::int64_t total_ii = 0;
  std::int64_t total_sim_cycles = 0;
};

PassSummary summarise(const driver::BatchReport& rep, const machine::SpmtConfig& cfg) {
  std::vector<double> f;
  std::vector<double> cpi;
  PassSummary s;
  for (const driver::JobResult& j : rep.results) {
    if (j.status != driver::JobStatus::kOk) continue;
    f.push_back(cost::per_iter_nomiss(j.metrics.ii, j.metrics.c_delay, cfg));
    cpi.push_back(static_cast<double>(j.sim_cycles) / static_cast<double>(kSimIterations));
    s.total_ii += j.metrics.ii;
    s.total_sim_cycles += j.sim_cycles;
  }
  s.f_geomean = geomean(f);
  s.sim_cycles_per_iter = geomean(cpi);
  return s;
}

void check_pass(const driver::BatchReport& rep, Report& r) {
  r.attempted += static_cast<std::int64_t>(rep.results.size());
  for (const driver::JobResult& j : rep.results) {
    if (j.status != driver::JobStatus::kOk) {
      r.fail(j.name + ": " + std::string(driver::to_string(j.status)) + " " + j.detail);
    }
  }
}

}  // namespace

Report run_compile_suite(const Options& opts) {
  Report r;
  const machine::MachineModel mach;
  const machine::SpmtConfig cfg;  // the paper's Table 1 machine: ncore 4, modulo
  const SuiteText in = make_inputs(opts.seed, opts.small);

  std::vector<driver::BatchJob> jobs;
  Report parse_report;
  const double setup_s = median_setup_s(
      opts.small ? 2 : kSetupReps, [&] { parse_report = Report{}; },
      [&] { jobs = parse_jobs(in, parse_report, nullptr); });
  r.failed += parse_report.failed;
  r.errors = parse_report.errors;

  driver::BatchOptions bo;
  bo.jobs = 1;
  bo.validate = true;
  bo.simulate_iterations = kSimIterations;
  bo.seed = mix_seed(opts.seed, 0xba7c4);

  // Timed phase: whole passes until --seconds have elapsed (at least one).
  std::vector<double> wall_ms;
  std::vector<double> pass_ms;
  driver::BatchReport first;
  const Clock::time_point phase = Clock::now();
  do {
    const Clock::time_point t = Clock::now();
    driver::BatchReport rep = driver::run_batch(jobs, mach, bo, nullptr);
    pass_ms.push_back(ms_since(t));
    check_pass(rep, r);
    for (const driver::JobResult& j : rep.results) wall_ms.push_back(j.wall_ms);
    if (pass_ms.size() == 1) {
      first = std::move(rep);
      continue;
    }
    // Every pass compiles the same jobs, so it must produce the same code.
    const PassSummary a = summarise(first, cfg);
    const PassSummary b = summarise(rep, cfg);
    if (a.total_ii != b.total_ii || a.total_sim_cycles != b.total_sim_cycles) {
      r.fail("pass " + std::to_string(pass_ms.size()) + " differs from pass 1");
    }
  } while (!opts.trace && ms_since(phase) < opts.seconds * 1000.0);

  double total_ms = 0.0;
  for (const double ms : pass_ms) total_ms += ms;
  const double loops_per_s = static_cast<double>(wall_ms.size()) / (total_ms / 1000.0);
  const double p50 = median(wall_ms);
  const double p90 = quantile(wall_ms, 0.90);
  const PassSummary sum = summarise(first, cfg);

  r.det("setup_s", setup_s, "s");
  r.det("loops_per_s", loops_per_s, "loops/s");
  r.det("compile_ms_p50", p50, "ms");
  r.det(tail_supported(wall_ms.size(), 0.90) ? "compile_ms_p90" : "compile_ms_p90_unsupported",
        p90, "ms");
  r.det("f_geomean", sum.f_geomean, "cycles/iter");
  r.det("sim_cycles_per_iter", sum.sim_cycles_per_iter, "cycles/iter");
  r.det("loops_per_pass", static_cast<double>(jobs.size()), "loops");
  r.det("passes", static_cast<double>(pass_ms.size()), "passes");

  auto per_pass = [&](const char* name) { return static_cast<double>(first.counters.value(name)); };
  r.count("input_digest", static_cast<double>(in.digest % 1000000007ULL), "hash");
  r.count("canonical_digest", static_cast<double>(in.canonical_digest % 1000000007ULL), "hash");
  r.count("f_geomean", sum.f_geomean, "cycles/iter");
  r.count("sim_cycles_per_iter", sum.sim_cycles_per_iter, "cycles/iter");
  r.count("sched.rungs", per_pass("sched.attempts"), "attempts");
  r.count("sched.slot_probes", per_pass("sched.slots_tried"), "slots");
  r.count("sched.ejections", per_pass("sched.ejections"), "nodes");
  r.count("sched.pmax_sweeps_skipped", per_pass("sched.pmax_sweeps_skipped"),
          "sweeps");
  r.count("sim.events", per_pass("sim.events"), "events");
  r.count("total_ii", static_cast<double>(sum.total_ii), "cycles");
  r.count("total_sim_cycles", static_cast<double>(sum.total_sim_cycles), "cycles");

  if (!opts.trace) {
    r.e2e("setup_s", setup_s, "s");
    r.e2e("work_per_s", loops_per_s, "1/s");
    r.e2e("latency_p50_ms", p50, "ms");
    r.e2e("latency_tail_ms", p90, "ms");
    r.e2e("f_geomean", sum.f_geomean, "cycles/iter");
    r.e2e("sim_cycles_per_iter", sum.sim_cycles_per_iter, "cycles/iter");
    return r;
  }

  // ---- traced run ---------------------------------------------------------
  Tracer tr;
  {
    Report scratch;
    parse_jobs(in, scratch, &tr);
  }
  double sum_wall_ms = 0.0;
  for (const driver::JobResult& j : first.results) sum_wall_ms += j.wall_ms;

  const obs::CountersSnapshot before = obs::counters_snapshot();
  std::int64_t pairs_tried = 0;
  double ge100_ms = 0.0;
  const Clock::time_point traced_start = Clock::now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ir::Loop& loop = jobs[i].loop;
    const auto id = static_cast<std::int64_t>(i);
    Tracer::Scope job(&tr, "driver.job", id);
    {
      // Attribution probes: tms_schedule runs both of these once inside.
      Tracer::Scope s(&tr, "sched.min_ii", id);
      (void)sched::min_ii(loop, mach);
    }
    {
      Tracer::Scope s(&tr, "sched.sms_node_order", id);
      (void)sched::sms_node_order(loop, mach);
    }
    std::optional<sched::TmsResult> tms;
    const std::size_t tms_span = tr.spans().size();
    {
      Tracer::Scope s(&tr, "sched.tms_schedule", id);
      tms = sched::tms_schedule(loop, mach, cfg);
    }
    const Tracer::Span& ts = tr.spans()[tms_span];
    if (loop.num_instrs() >= 100) ge100_ms += static_cast<double>(ts.end_ns - ts.start_ns) / 1e6;
    r.attempted += 1;
    if (!tms.has_value()) {
      r.fail(jobs[i].name + ": traced tms_schedule found no schedule");
      continue;
    }
    pairs_tried += tms->pairs_tried;
    sched::LoopMetrics m;
    {
      Tracer::Scope s(&tr, "sched.measure", id);
      m = sched::measure(tms->schedule, cfg);
    }
    check::CheckOptions co;
    co.c_delay_threshold = tms->c_delay_threshold;
    co.p_max = tms->p_max;
    bool valid = false;
    {
      Tracer::Scope s(&tr, "check.validate_schedule", id);
      valid = check::validate_schedule(tms->schedule, cfg, co).ok();
    }
    codegen::KernelProgram kp;
    {
      Tracer::Scope s(&tr, "codegen.lower_kernel", id);
      kp = codegen::lower_kernel(tms->schedule, cfg);
    }
    {
      Tracer::Scope s(&tr, "check.validate_kernel_program", id);
      valid = check::validate_kernel_program(kp, tms->schedule, cfg).ok() && valid;
    }
    std::optional<spmt::AddressStreams> streams;
    {
      Tracer::Scope s(&tr, "spmt.default_streams", id);
      streams.emplace(spmt::default_streams(loop, job_stream_seed(bo.seed, i)));
    }
    spmt::SpmtOptions so;
    so.iterations = kSimIterations;
    so.keep_memory = false;
    std::int64_t cycles = 0;
    {
      Tracer::Scope s(&tr, "spmt.run_spmt", id);
      cycles = spmt::run_spmt(loop, kp, cfg, *streams, so).stats.total_cycles;
    }
    const driver::JobResult& batch = first.results[i];
    if (!valid) r.fail(jobs[i].name + ": traced stages failed validation");
    if (m.ii != batch.metrics.ii || cycles != batch.sim_cycles) {
      r.fail(jobs[i].name + ": traced stages disagree with run_batch");
    }
  }
  const double traced_ms = ms_since(traced_start);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());

  const double probe_ms = tr.total_ms("sched.min_ii") + tr.total_ms("sched.sms_node_order");
  const double stage_ms = tr.total_ms("sched.tms_schedule") + tr.total_ms("sched.measure") +
                          tr.total_ms("check.validate_schedule") +
                          tr.total_ms("codegen.lower_kernel") +
                          tr.total_ms("check.validate_kernel_program") +
                          tr.total_ms("spmt.default_streams") + tr.total_ms("spmt.run_spmt");
  const double tms_ms = tr.total_ms("sched.tms_schedule");
  const auto slot_probes = static_cast<double>(d.value("sched.slots_tried"));
  const std::vector<double> tms_each = tr.durations_ms("sched.tms_schedule");

  r.layer("ir.parse_ms", tr.total_ms("ir.parse_loop_string"), "ms");
  r.layer("sched.tms_ms", tms_ms, "ms");
  r.layer("sched.tms_ms_p50", median(tms_each), "ms");
  r.layer("sched.tms_ms_p90", quantile(tms_each, 0.90), "ms");
  r.layer("sched.tms_ms_ge100", ge100_ms, "ms");
  r.layer("sched.mii_ms", tr.total_ms("sched.min_ii"), "ms");
  r.layer("sched.order_ms", tr.total_ms("sched.sms_node_order"), "ms");
  r.layer("sched.pairs_tried", static_cast<double>(pairs_tried), "pairs");
  r.layer("sched.rungs", static_cast<double>(d.value("sched.attempts")), "attempts");
  r.layer("sched.slot_probes", slot_probes, "slots");
  r.layer("sched.ejections", static_cast<double>(d.value("sched.ejections")), "nodes");
  r.layer("sched.pmax_sweeps_skipped", static_cast<double>(d.value("sched.pmax_sweeps_skipped")),
          "sweeps");
  r.layer("sched.ns_per_slot_probe", slot_probes > 0 ? tms_ms * 1e6 / slot_probes : 0.0, "ns");
  r.layer("check.validate_ms", tr.total_ms("check.validate_schedule"), "ms");
  r.layer("check.validate_kernel_ms", tr.total_ms("check.validate_kernel_program"), "ms");
  r.layer("codegen.lower_ms", tr.total_ms("codegen.lower_kernel"), "ms");
  r.layer("spmt.short_run_ms", tr.total_ms("spmt.run_spmt"), "ms");
  r.layer("driver.job_overhead_ms", sum_wall_ms - stage_ms, "ms");
  r.layer("driver.pool_overhead_ms", pass_ms.front() - sum_wall_ms, "ms");
  r.layer("bench.trace_overhead_pct",
          ((traced_ms - probe_ms) / pass_ms.front() - 1.0) * 100.0, "%");

  r.count("sched.pairs_tried", static_cast<double>(pairs_tried), "pairs");
  write_trace(opts, tr, r);
  return r;
}

}  // namespace tmsperf
