#include "driver/sim_sweep.hpp"

#include <algorithm>
#include <exception>

#include "driver/job_pool.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "spmt/address.hpp"

namespace tms::driver {

namespace {

SimSweepOutcome run_point(const SimSweepPoint& p) {
  SimSweepOutcome out;
  out.name = p.name;
  out.ncore = p.cfg.ncore;
  try {
    const spmt::AddressStreams streams = spmt::default_streams(p.loop, p.stream_seed);
    const spmt::SpmtResult res = spmt::run_spmt(p.loop, p.kp, p.cfg, streams, p.sim);
    out.stats = res.stats;
    out.value_fingerprint = res.value_fingerprint;
    out.ok = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  return out;
}

}  // namespace

std::vector<SimSweepOutcome> run_sim_sweep(const std::vector<SimSweepPoint>& points,
                                           const SimSweepOptions& opts) {
  TMS_TRACE_SPAN(span, "driver", "driver.sim_sweep");
  std::vector<SimSweepOutcome> results(points.size());
  // No more workers than points: a spare worker would only start a
  // thread that finds nothing to steal.
  const int threads = opts.threads > 0 ? opts.threads : JobPool::default_threads();
  JobPool(static_cast<int>(std::min<std::size_t>(threads, points.size())))
      .run(points.size(), [&](std::size_t i) { results[i] = run_point(points[i]); });
  obs::counters().sim_sweep_points.add(points.size());
  TMS_TRACE_SPAN_ARG(span, obs::targ("points", static_cast<std::int64_t>(points.size())));
  return results;
}

}  // namespace tms::driver
