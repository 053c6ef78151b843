// Parallel simulator sweeps: run independent (workload, config)
// simulation points concurrently on a driver::JobPool.
//
// The ncore=16/32/64 scaling studies simulate the same kernels under
// many machine configs; every point is an independent run_spmt call, so
// they parallelise perfectly. Points carry their pre-lowered
// KernelProgram — the sweep measures simulation, not scheduling — and
// results land in submission order regardless of worker interleaving,
// so a sweep is byte-deterministic across thread counts (the same
// contract JobPool gives run_batch).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "codegen/kernel_program.hpp"
#include "ir/loop.hpp"
#include "machine/spmt_config.hpp"
#include "spmt/sim.hpp"

namespace tms::driver {

/// One independent simulation: a loop with its lowered kernel, the
/// machine config to simulate, and the simulator options (iterations,
/// keep_memory, ...).
struct SimSweepPoint {
  std::string name;  ///< label echoed in the outcome (e.g. "fft.ncore32")
  ir::Loop loop;
  codegen::KernelProgram kp;
  machine::SpmtConfig cfg;
  spmt::SpmtOptions sim;
  std::uint64_t stream_seed = 1;  ///< address-stream layout (default_streams)
};

struct SimSweepOutcome {
  std::string name;
  int ncore = 0;
  bool ok = false;
  std::string error;  ///< what() of the failure when !ok
  spmt::SpmtStats stats;
  /// Committed-value fingerprint (0 unless the point kept memory).
  std::uint64_t value_fingerprint = 0;
};

struct SimSweepOptions {
  int threads = 0;  ///< workers; <= 0 selects JobPool::default_threads()
};

/// Runs every point on a JobPool of `opts.threads` workers (one worker
/// runs them inline on the calling thread), returning outcomes indexed
/// exactly like `points`. Per-point failures are captured in the
/// outcome, never thrown.
std::vector<SimSweepOutcome> run_sim_sweep(const std::vector<SimSweepPoint>& points,
                                           const SimSweepOptions& opts = {});

}  // namespace tms::driver
