#include "spmt/estimate.hpp"

#include <algorithm>

#include "obs/counters.hpp"
#include "spmt/address.hpp"
#include "spmt/reference.hpp"
#include "support/assert.hpp"

namespace tms::spmt {

QuickEstimate quick_estimate(const ir::Loop& loop, const codegen::KernelProgram& kp,
                             const machine::SpmtConfig& cfg, const QuickEstimateOptions& opts) {
  QuickEstimate qe;
  qe.iterations = opts.iterations > 0
                      ? opts.iterations
                      : std::min<std::int64_t>(
                            256, std::max<std::int64_t>(32, 8 * static_cast<std::int64_t>(cfg.ncore)));

  const AddressStreams streams = default_streams(loop, opts.stream_seed);
  SpmtOptions sim;
  sim.iterations = qe.iterations;
  sim.keep_memory = opts.check_semantics;
  const SpmtResult res = run_spmt(loop, kp, cfg, streams, sim);
  qe.stats = res.stats;
  qe.cycles_per_iteration =
      static_cast<double>(res.stats.total_cycles) / static_cast<double>(qe.iterations);
  qe.misspec_frequency = res.stats.misspec_frequency();

  if (opts.check_semantics) {
    const ReferenceResult ref = run_reference(loop, streams, qe.iterations);
    qe.semantics_ok =
        res.value_fingerprint == ref.value_fingerprint && res.memory == ref.memory;
  }
  obs::counters().sim_quick_estimates.add(1);
  return qe;
}

}  // namespace tms::spmt
