// simulate_doacross: the 7 Table-3 DOACROSS loops under 3 machine configs
// (21 points), simulated serially on the event engine through
// driver::run_sim_sweep with one thread, timing only.
//
// Configs: ncore 4 with the modulo policy (the paper's Table 1 machine);
// ncore 32 with modulo; ncore 32 with locality, block 4 and the shared bus
// at 8 bytes per transfer (the setting policy_compare uses).
//
// Inputs: the loops are fixed; the seed picks each point's address-stream
// layout. Set-up: scheduling (TMS), validating and lowering the 21 points.
// Timed phase: rounds over the points, one run_sim_sweep call per point,
// until --seconds have elapsed.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "check/validate.hpp"
#include "codegen/kernel_program.hpp"
#include "common.hpp"
#include "driver/sim_sweep.hpp"
#include "machine/machine.hpp"
#include "obs/counters.hpp"
#include "sched/tms.hpp"
#include "spmt/address.hpp"
#include "spmt/estimate.hpp"
#include "spmt/sim.hpp"
#include "workloads/doacross.hpp"

namespace tmsperf {
namespace {

using namespace tms;

struct Config {
  const char* name;
  machine::SpmtConfig cfg;
};

std::vector<Config> configs() {
  machine::SpmtConfig c4;
  c4.ncore = 4;
  machine::SpmtConfig c32 = c4;
  c32.ncore = 32;
  machine::SpmtConfig loc = c32;
  loc.policy = machine::AllocPolicy::kLocality;
  loc.policy_block = 4;
  loc.bus_bytes_per_transfer = 8;
  return {{"ncore4_modulo", c4}, {"ncore32_modulo", c32}, {"ncore32_locality", loc}};
}

struct Point {
  std::vector<driver::SimSweepPoint> sweep;  ///< exactly one point: the sweep input
  double f_value = 0.0;                      ///< F(II, C_delay) of the schedule
  int pairs_tried = 0;
};

/// Schedules, validates and lowers every point. Returns the points with
/// their sweep inputs; validation failures land in `r`.
std::vector<Point> set_up(const std::vector<ir::Loop>& loops, std::int64_t iterations,
                          std::uint64_t seed, Report& r, Tracer* tr) {
  const machine::MachineModel mach;
  std::vector<Point> points;
  for (const Config& c : configs()) {
    for (const ir::Loop& loop : loops) {
      const auto id = static_cast<std::int64_t>(points.size());
      std::optional<sched::TmsResult> tms;
      {
        Tracer::Scope s(tr, "sched.tms_schedule", id);
        tms = sched::tms_schedule(loop, mach, c.cfg);
      }
      const std::string name = loop.name() + "." + c.name;
      if (!tms.has_value()) {
        r.fail(name + ": tms_schedule found no schedule");
        continue;
      }
      check::CheckOptions co;
      co.c_delay_threshold = tms->c_delay_threshold;
      co.p_max = tms->p_max;
      bool valid = false;
      {
        Tracer::Scope s(tr, "check.validate_schedule", id);
        valid = check::validate_schedule(tms->schedule, c.cfg, co).ok();
      }
      driver::SimSweepPoint p;
      {
        Tracer::Scope s(tr, "codegen.lower_kernel", id);
        p.kp = codegen::lower_kernel(tms->schedule, c.cfg);
      }
      {
        Tracer::Scope s(tr, "check.validate_kernel_program", id);
        valid = check::validate_kernel_program(p.kp, tms->schedule, c.cfg).ok() && valid;
      }
      if (!valid) r.fail(name + ": schedule or kernel failed validation");
      p.name = name;
      p.loop = loop;
      p.cfg = c.cfg;
      p.sim.iterations = iterations;
      p.sim.keep_memory = false;
      p.sim.engine = spmt::SimEngine::kEventDriven;
      p.stream_seed = mix_seed(seed, static_cast<std::uint64_t>(id) + 1);
      Point pt;
      pt.sweep.push_back(std::move(p));
      pt.f_value = tms->f_value;
      pt.pairs_tried = tms->pairs_tried;
      points.push_back(std::move(pt));
    }
  }
  return points;
}

bool same_stats(const spmt::SpmtStats& a, const spmt::SpmtStats& b) {
  return a.total_cycles == b.total_cycles && a.threads_committed == b.threads_committed &&
         a.misspeculations == b.misspeculations && a.sync_stall_cycles == b.sync_stall_cycles &&
         a.mem_stall_cycles == b.mem_stall_cycles && a.bus_cycles == b.bus_cycles;
}

}  // namespace

Report run_simulate_doacross(const Options& opts) {
  Report r;
  std::vector<ir::Loop> loops;
  for (workloads::SelectedLoop& s : workloads::doacross_selected_loops()) {
    // --small keeps the four art loops, whose set-up is fast.
    if (opts.small && loops.size() == 4) break;
    loops.push_back(std::move(s.loop));
  }
  const std::int64_t iterations = opts.small ? 2000 : 50000;

  // Set-up takes 11-25 s (lucas_sel dominates), too long to repeat; one
  // run already averages over thousands of scheduler rungs. The traced
  // run records spans.
  Tracer tr;
  Report setup_report;
  const obs::CountersSnapshot setup_before = obs::counters_snapshot();
  const Clock::time_point setup_start = Clock::now();
  const std::vector<Point> points =
      set_up(loops, iterations, opts.seed, setup_report, opts.trace ? &tr : nullptr);
  const double setup_s = ms_since(setup_start) / 1000.0;
  const obs::CountersSnapshot setup_delta =
      obs::snapshot_delta(setup_before, obs::counters_snapshot());
  r.attempted += static_cast<std::int64_t>(points.size());
  r.failed += setup_report.failed;
  r.errors = setup_report.errors;

  driver::SimSweepOptions serial;
  serial.threads = 1;
  const double iters_per_round = static_cast<double>(points.size() * static_cast<std::size_t>(iterations));

  // Timed phase: rounds over the 21 points until --seconds have elapsed.
  std::vector<spmt::SpmtStats> first(points.size());
  std::vector<double> point_ms;
  std::vector<double> round_rate;
  const Clock::time_point phase = Clock::now();
  do {
    double round_ms = 0.0;
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Clock::time_point t = Clock::now();
      const std::vector<driver::SimSweepOutcome> out = driver::run_sim_sweep(points[i].sweep, serial);
      const double ms = ms_since(t);
      point_ms.push_back(ms);
      round_ms += ms;
      r.attempted += 1;
      if (out.size() != 1 || !out[0].ok) {
        r.fail(points[i].sweep[0].name + ": simulation failed");
      } else if (round_rate.empty()) {
        first[i] = out[0].stats;
      } else if (!same_stats(first[i], out[0].stats)) {
        r.fail(points[i].sweep[0].name + ": simulation is not deterministic");
      }
    }
    round_rate.push_back(iters_per_round / (round_ms / 1000.0));
  } while (!opts.trace && ms_since(phase) < opts.seconds * 1000.0);

  // Output check, off the timed path: every kernel commits exactly the
  // sequential reference semantics.
  for (const Point& p : points) {
    const driver::SimSweepPoint& sp = p.sweep[0];
    spmt::QuickEstimateOptions qo;
    qo.stream_seed = sp.stream_seed;
    qo.check_semantics = true;
    r.attempted += 1;
    if (!spmt::quick_estimate(sp.loop, sp.kp, sp.cfg, qo).semantics_ok) {
      r.fail(sp.name + ": quick_estimate diverged from the sequential reference");
    }
  }

  std::vector<double> f;
  std::vector<double> cpi;
  std::vector<double> err;
  std::int64_t pairs = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double sim = static_cast<double>(first[i].total_cycles) / static_cast<double>(iterations);
    f.push_back(points[i].f_value);
    cpi.push_back(sim);
    err.push_back(std::max(std::fabs(points[i].f_value - sim) / sim * 100.0, 1e-9));
    pairs += points[i].pairs_tried;
  }
  const double iters_per_s = median(round_rate);
  const double p50 = median(point_ms);
  const double p90 = quantile(point_ms, 0.90);

  r.det("setup_s", setup_s, "s");
  r.det("sim_iters_per_s", iters_per_s, "iters/s");
  r.det("point_ms_p50", p50, "ms");
  r.det(tail_supported(point_ms.size(), 0.90) ? "point_ms_p90" : "point_ms_p90_unsupported", p90,
        "ms");
  r.det("f_geomean", geomean(f), "cycles/iter");
  r.det("sim_cycles_per_iter", geomean(cpi), "cycles/iter");
  r.det("points", static_cast<double>(points.size()), "points");
  r.det("rounds", static_cast<double>(round_rate.size()), "rounds");
  r.det("iterations_per_point", static_cast<double>(iterations), "iters");

  std::uint64_t layout = digest("");
  for (const Point& p : points) layout = digest(std::to_string(p.sweep[0].stream_seed), layout);
  r.count("input_digest", static_cast<double>(layout % 1000000007ULL), "hash");
  r.count("f_geomean", geomean(f), "cycles/iter");
  r.count("sim_cycles_per_iter", geomean(cpi), "cycles/iter");
  r.count("cost.f_error_pct", geomean(err), "%");
  r.count("sched.setup_pairs_tried", static_cast<double>(pairs), "pairs");
  r.count("sched.setup_rungs", static_cast<double>(setup_delta.value("sched.attempts")), "attempts");
  std::int64_t total_cycles = 0;
  for (const spmt::SpmtStats& s : first) total_cycles += s.total_cycles;
  r.count("total_sim_cycles", static_cast<double>(total_cycles), "cycles");

  if (!opts.trace) {
    r.e2e("setup_s", setup_s, "s");
    r.e2e("work_per_s", iters_per_s, "1/s");
    r.e2e("latency_p50_ms", p50, "ms");
    r.e2e("latency_tail_ms", p90, "ms");
    r.e2e("f_geomean", geomean(f), "cycles/iter");
    r.e2e("sim_cycles_per_iter", geomean(cpi), "cycles/iter");
    return r;
  }

  // ---- traced run ---------------------------------------------------------
  // One traced round: each point through run_sim_sweep (the measured path)
  // and once more through spmt::run_spmt directly, which splits the
  // sweep's own cost from the simulation's.
  const double untraced_round_ms = iters_per_round / round_rate.front() * 1000.0;
  const obs::CountersSnapshot before = obs::counters_snapshot();
  spmt::SpmtStats sum;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const driver::SimSweepPoint& sp = points[i].sweep[0];
    const auto id = static_cast<std::int64_t>(i);
    {
      Tracer::Scope s(&tr, "driver.run_sim_sweep", id);
      (void)driver::run_sim_sweep(points[i].sweep, serial);
    }
    std::optional<spmt::AddressStreams> streams;
    {
      Tracer::Scope s(&tr, "spmt.default_streams", id);
      streams.emplace(spmt::default_streams(sp.loop, sp.stream_seed));
    }
    const std::size_t run_span = tr.spans().size();
    spmt::SpmtStats st;
    {
      Tracer::Scope s(&tr, "spmt.run_spmt", id);
      st = spmt::run_spmt(sp.loop, sp.kp, sp.cfg, *streams, sp.sim).stats;
    }
    const Tracer::Span& rs = tr.spans()[run_span];
    r.layer("spmt.run_ms." + sp.name, static_cast<double>(rs.end_ns - rs.start_ns) / 1e6, "ms");
    if (!same_stats(st, first[i])) r.fail(sp.name + ": run_spmt disagrees with run_sim_sweep");
    sum.sync_stall_cycles += st.sync_stall_cycles;
    sum.mem_stall_cycles += st.mem_stall_cycles;
    sum.squashed_cycles += st.squashed_cycles;
    sum.bus_cycles += st.bus_cycles;
    sum.send_block_cycles += st.send_block_cycles;
    sum.misspeculations += st.misspeculations;
  }
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  // Both paths simulate every point once, so half the events are run_spmt's.
  const double events = static_cast<double>(d.value("sim.events")) / 2.0;
  const double run_ms = tr.total_ms("spmt.run_spmt");
  const double sweep_ms = tr.total_ms("driver.run_sim_sweep");
  const double total_iters = iters_per_round;

  r.layer("sched.setup_tms_ms", tr.total_ms("sched.tms_schedule"), "ms");
  r.layer("sched.setup_pairs_tried", static_cast<double>(pairs), "pairs");
  r.layer("codegen.setup_lower_ms", tr.total_ms("codegen.lower_kernel"), "ms");
  r.layer("spmt.run_ms", run_ms, "ms");
  r.layer("spmt.events", events, "events");
  r.layer("spmt.ns_per_event", events > 0 ? run_ms * 1e6 / events : 0.0, "ns");
  r.layer("driver.sweep_overhead_ms",
          sweep_ms - run_ms, "ms");
  r.layer("spmt.sync_stall_per_iter", static_cast<double>(sum.sync_stall_cycles) / total_iters,
          "cycles/iter");
  r.layer("spmt.mem_stall_per_iter", static_cast<double>(sum.mem_stall_cycles) / total_iters,
          "cycles/iter");
  r.layer("spmt.squashed_per_iter", static_cast<double>(sum.squashed_cycles) / total_iters,
          "cycles/iter");
  r.layer("spmt.bus_per_iter", static_cast<double>(sum.bus_cycles) / total_iters, "cycles/iter");
  r.layer("spmt.send_block_per_iter", static_cast<double>(sum.send_block_cycles) / total_iters,
          "cycles/iter");
  r.layer("spmt.squashes", static_cast<double>(sum.misspeculations), "squashes");
  r.layer("cost.f_error_pct", geomean(err), "%");
  r.layer("bench.trace_overhead_pct", (sweep_ms / untraced_round_ms - 1.0) * 100.0, "%");

  r.count("spmt.events", events, "events");
  r.count("spmt.squashes", static_cast<double>(sum.misspeculations), "squashes");
  write_trace(opts, tr, r);
  return r;
}

}  // namespace tmsperf
