// Differential oracle: executes a scheduled loop on the SpMT simulator
// and cross-checks it against independent executions of the same loop.
//
// Three executions are compared:
//   - spmt::run_spmt over the lowered kernel program (the system under
//     test: speculation, squash, ring communication, caches);
//   - spmt::run_reference, the sequential interpreter (semantic ground
//     truth — the "golden rule" of speculative execution);
//   - spmt::run_single_threaded, the dynamically scheduled single-core
//     baseline (checked for its own conservation invariants).
//
// Beyond value equality (fingerprint + full final memory image diff) the
// oracle enforces conservation laws on SpmtStats that any correct run of
// the Section-3 execution model must satisfy:
//   - threads_committed == N + stage_count - 1 (every kernel iteration,
//     including prologue/epilogue partials, commits exactly once);
//   - instances_executed == N * |loop| (each source instance commits
//     exactly once, however many squashed attempts preceded it);
//   - send_recv_pairs == comm_pairs_per_iter * max(0, N - stages + 1)
//     (only steady-state threads run the full SEND/RECV complement);
//   - squashed_cycles >= misspeculations * C_inv, and zero squashed
//     cycles when nothing misspeculated;
//   - sync_stall_cycles == 0 when the kernel has no cross-thread register
//     inputs (nothing to RECV on);
//   - the per-thread trace, when collected, re-sums to the aggregate
//     stats (starts <= completions < commits, sequential commit order,
//     correct ring core assignment).
#pragma once

#include <cstdint>

#include "check/validate.hpp"
#include "ir/loop.hpp"
#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"
#include "sched/schedule.hpp"
#include "spmt/sim.hpp"

namespace tms::check {

struct OracleOptions {
  std::int64_t iterations = 200;
  /// Seed for spmt::default_streams — varies the memory layout and the
  /// realised collision pattern of speculated dependences.
  std::uint64_t stream_seed = 42;
  /// Also run the single-threaded baseline and its invariants.
  bool run_baseline = true;
};

struct OracleReport {
  std::vector<Violation> violations;
  /// Stats of the SpMT run, for callers that want to inspect squash
  /// counts etc. after a clean oracle pass.
  spmt::SpmtStats stats;
  bool ok() const { return violations.empty(); }
  std::string to_string() const;
};

/// Lowers `sched`, runs all executions and returns every violated
/// invariant. The schedule must already have passed validate_schedule
/// (lowering aborts on modulo-invalid schedules).
OracleReport run_differential_oracle(const ir::Loop& loop, const sched::Schedule& sched,
                                     const machine::SpmtConfig& cfg,
                                     const OracleOptions& opts = {});

}  // namespace tms::check
