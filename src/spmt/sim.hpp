// The SpMT multicore simulator (Section 3's execution model).
//
// Thread k executes kernel iteration k of a modulo-scheduled loop on the
// core chosen by the configured allocation policy (SpmtConfig::policy,
// resolved through policy::make_policy — the paper's default maps k to
// core k mod ncore): for each node v, the instance of source iteration
// k - stage(v) (skipped in prologue/epilogue threads). Threads are
// spawned sequentially (C_spn apart), commit sequentially (C_ci each,
// double-buffered write buffer), and synchronise register dependences at
// the policy's comm_cost — ring SEND/RECV legs plus the shared-bus
// contention charge when the bus term is on. Inter-thread memory dependences
// are speculated: a load that executed before the program-order-earlier
// store it aliases with triggers a violation; the thread is squashed when
// the older thread completes (paying C_inv) and re-executed on its core.
//
// The timing model is in-order issue of the static kernel schedule with a
// cumulative stall shift: RECV waits, L1-miss latency beyond the
// scheduler's assumed hit latency, and re-execution restarts all push the
// remainder of the thread later. This reproduces exactly the overheads of
// the paper's cost model while staying deterministic and fast.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "codegen/kernel_program.hpp"
#include "machine/spmt_config.hpp"
#include "spmt/address.hpp"

namespace tms::spmt {

/// The simulator has one engine, the event-driven core in event_sim.cpp
/// (docs/SIMULATOR.md). This enum and SpmtOptions::engine remain only
/// because the benchmark's perfbench/simulate_doacross.cpp assigns
/// kEventDriven, and the benchmark's sources change only together with
/// the benchmark. They go when that line does (ROADMAP item 3).
enum class SimEngine {
  kEventDriven,
};

struct SpmtOptions {
  std::int64_t iterations = 2000;  ///< source iterations N (N >> ncore assumed)
  /// Collect the final committed memory image (for semantics tests);
  /// disable for large benchmark sweeps to save allocation churn.
  bool keep_memory = true;
  /// Record a per-thread execution trace (start/completion/commit,
  /// stalls, squash attempts) in SpmtResult::trace.
  bool collect_trace = false;
  /// Force every inter-thread memory dependence to be correct-by-timing by
  /// never speculating: loads wait until they are in the head thread
  /// whenever their address stream *could* alias (the Section 5.2
  /// "without speculation" ablation).
  bool disable_speculation = false;
  int max_reexecutions = 8;  ///< before falling back to head-only execution
  SimEngine engine = SimEngine::kEventDriven;  ///< the only value; see SimEngine
};

struct SpmtStats {
  std::int64_t threads_committed = 0;
  std::int64_t instances_executed = 0;
  std::int64_t total_cycles = 0;
  std::int64_t sync_stall_cycles = 0;   ///< committed threads stalled at RECV
  std::int64_t mem_stall_cycles = 0;    ///< load latency beyond the scheduled hit
  std::int64_t send_recv_pairs = 0;     ///< dynamic pairs in committed threads
  std::int64_t misspeculations = 0;     ///< squash events
  std::int64_t squashed_cycles = 0;     ///< wasted execution + invalidation
  std::int64_t wb_overflow_waits = 0;
  std::int64_t spec_wait_cycles = 0;    ///< disable_speculation serialisation
  std::int64_t send_block_cycles = 0;   ///< ring-queue backpressure on SENDs
  /// Cross-core register transfers charged to the shared bus by committed
  /// threads (counted even with the bus term off — it is a pure dataflow
  /// volume; same-core forwards under locality-style policies are free).
  std::int64_t bus_transfers = 0;
  /// Contention cycles those transfers added to forwarding delays:
  /// bus_transfers * SpmtConfig::bus_transfer_cycles(). 0 with the bus off.
  std::int64_t bus_cycles = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;

  double misspec_frequency() const {
    return threads_committed > 0
               ? static_cast<double>(misspeculations) / static_cast<double>(threads_committed)
               : 0.0;
  }
  /// SEND/RECV execution cycles (Section 5.2's definition, priced at the
  /// contention-free c_reg_com; bus contention is reported separately in
  /// bus_cycles so the paper's metric stays comparable).
  std::int64_t comm_cycles(const machine::SpmtConfig& cfg) const {
    return send_recv_pairs * cfg.c_reg_com;
  }
  /// Communication overhead as defined in Section 5.2: RECV stalls plus
  /// SEND/RECV execution cycles.
  std::int64_t communication_overhead(const machine::SpmtConfig& cfg) const {
    return sync_stall_cycles + comm_cycles(cfg);
  }
};

/// One committed thread's measured timeline (collect_trace).
struct ThreadTrace {
  std::int64_t thread = 0;
  int core = 0;
  std::int64_t start = 0;       ///< final (committed) attempt's start
  std::int64_t completion = 0;
  std::int64_t commit_end = 0;
  int attempts = 1;             ///< 1 = never squashed
  std::int64_t sync_stall = 0;  ///< RECV stall cycles of the final attempt
  std::int64_t mem_stall = 0;
};

struct SpmtResult {
  SpmtStats stats;
  /// Committed memory image (program-order-final store per address);
  /// empty when keep_memory is false.
  std::unordered_map<std::uint64_t, std::uint64_t> memory;
  std::uint64_t value_fingerprint = 0;  ///< over committed instances, program order
  std::vector<ThreadTrace> trace;       ///< per thread, when collect_trace
};

/// CSV export of a trace (header + one row per thread).
std::string trace_to_csv(const std::vector<ThreadTrace>& trace);

/// ASCII Gantt rendering of the first `max_threads` threads of a
/// measured trace — the empirical counterpart of viz::render_execution.
std::string trace_to_ascii(const std::vector<ThreadTrace>& trace, int max_threads = 12);

/// Runs the kernel program for `opts.iterations` source iterations of the
/// loop it was lowered from on the event engine, and adds the run to the
/// `sim.*` obs counters.
SpmtResult run_spmt(const ir::Loop& loop, const codegen::KernelProgram& kp,
                    const machine::SpmtConfig& cfg, const AddressStreams& streams,
                    const SpmtOptions& opts = {});

}  // namespace tms::spmt
