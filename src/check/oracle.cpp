#include "check/oracle.hpp"

#include <sstream>

#include "codegen/kernel_program.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "spmt/address.hpp"
#include "spmt/reference.hpp"
#include "spmt/single_core.hpp"

namespace tms::check {
namespace {

class Reporter {
 public:
  explicit Reporter(OracleReport& report) : report_(report) {}

  template <typename... Args>
  void fail(ViolationKind kind, const Args&... parts) {
    std::ostringstream os;
    (os << ... << parts);
    report_.violations.push_back(Violation{kind, os.str()});
  }

 private:
  OracleReport& report_;
};

}  // namespace

std::string OracleReport::to_string() const {
  std::string out;
  for (const Violation& v : violations) {
    out += std::string(check::to_string(v.kind)) + ": " + v.message + "\n";
  }
  return out;
}

OracleReport run_differential_oracle(const ir::Loop& loop, const sched::Schedule& sched,
                                     const machine::SpmtConfig& cfg,
                                     const OracleOptions& opts) {
  OracleReport report;
  Reporter r(report);
  TMS_TRACE_SPAN(span, "check", "oracle.run");
  TMS_TRACE_SPAN_ARG(span, obs::targ("iterations", opts.iterations));
  const std::int64_t n = opts.iterations;

  const spmt::AddressStreams streams = spmt::default_streams(loop, opts.stream_seed);
  const codegen::KernelProgram kp = codegen::lower_kernel(sched, cfg);

  spmt::SpmtOptions sim_opts;
  sim_opts.iterations = n;
  sim_opts.keep_memory = true;
  sim_opts.collect_trace = true;
  const spmt::SpmtResult sim = spmt::run_spmt(loop, kp, cfg, streams, sim_opts);
  report.stats = sim.stats;

  const spmt::ReferenceResult ref = spmt::run_reference(loop, streams, n);

  // --- Golden rule: committed values match the sequential reference -------
  if (sim.value_fingerprint != ref.value_fingerprint) {
    r.fail(ViolationKind::kFingerprintMismatch, "SpMT fingerprint ", sim.value_fingerprint,
           " != reference ", ref.value_fingerprint, " over ", n, " iterations");
  }
  for (const auto& [addr, val] : ref.memory) {
    const auto it = sim.memory.find(addr);
    if (it == sim.memory.end()) {
      r.fail(ViolationKind::kMemoryMismatch, "address 0x", std::hex, addr, std::dec,
             " written by the reference but absent from the SpMT image");
    } else if (it->second != val) {
      r.fail(ViolationKind::kMemoryMismatch, "address 0x", std::hex, addr, ": SpMT value ",
             it->second, " != reference ", val, std::dec);
    }
    if (report.violations.size() >= 8) break;  // a diverged run floods otherwise
  }
  if (report.violations.size() < 8) {
    for (const auto& [addr, val] : sim.memory) {
      if (ref.memory.count(addr) == 0) {
        r.fail(ViolationKind::kMemoryMismatch, "address 0x", std::hex, addr, std::dec,
               " written by the SpMT run but never by the reference");
        if (report.violations.size() >= 8) break;
      }
    }
  }

  // --- Conservation invariants on the stats -------------------------------
  const std::int64_t expected_threads = n + kp.stage_count - 1;
  if (sim.stats.threads_committed != expected_threads) {
    r.fail(ViolationKind::kStatsConservation, "threads_committed ", sim.stats.threads_committed,
           " != N + stages - 1 = ", expected_threads);
  }
  const std::int64_t expected_instances = n * loop.num_instrs();
  if (sim.stats.instances_executed != expected_instances) {
    r.fail(ViolationKind::kStatsConservation, "instances_executed ",
           sim.stats.instances_executed, " != N * |loop| = ", expected_instances);
  }
  const std::int64_t steady = std::max<std::int64_t>(0, n - (kp.stage_count - 1));
  if (sim.stats.send_recv_pairs !=
      static_cast<std::int64_t>(kp.comm_pairs_per_iter) * steady) {
    r.fail(ViolationKind::kStatsConservation, "send_recv_pairs ", sim.stats.send_recv_pairs,
           " != comm_pairs_per_iter * steady_threads = ",
           static_cast<std::int64_t>(kp.comm_pairs_per_iter) * steady);
  }
  if (sim.stats.misspeculations == 0 && sim.stats.squashed_cycles != 0) {
    r.fail(ViolationKind::kStatsConservation, "squashed ", sim.stats.squashed_cycles,
           " cycles with zero misspeculations");
  }
  if (sim.stats.squashed_cycles < sim.stats.misspeculations * cfg.c_inv) {
    r.fail(ViolationKind::kStatsConservation, "squashed_cycles ", sim.stats.squashed_cycles,
           " < misspeculations * C_inv = ", sim.stats.misspeculations * cfg.c_inv);
  }
  if (kp.inputs.empty() && sim.stats.sync_stall_cycles != 0) {
    r.fail(ViolationKind::kStatsConservation, "sync_stall_cycles ",
           sim.stats.sync_stall_cycles, " with no cross-thread register inputs");
  }
  if (sim.stats.total_cycles <= 0) {
    r.fail(ViolationKind::kStatsConservation, "total_cycles ", sim.stats.total_cycles,
           " for a non-empty run");
  }

  // --- Trace vs aggregate stats -------------------------------------------
  if (static_cast<std::int64_t>(sim.trace.size()) != sim.stats.threads_committed) {
    r.fail(ViolationKind::kTraceInconsistent, "trace has ", sim.trace.size(),
           " threads, stats committed ", sim.stats.threads_committed);
  } else if (!sim.trace.empty()) {
    const std::unique_ptr<policy::CorePolicy> pol = policy::make_policy(cfg, loop);
    std::int64_t sync = 0;
    std::int64_t extra_attempts = 0;
    std::int64_t prev_commit = 0;
    for (const spmt::ThreadTrace& t : sim.trace) {
      if (t.start > t.completion || t.completion >= t.commit_end) {
        r.fail(ViolationKind::kTraceInconsistent, "thread ", t.thread,
               " timeline not ordered: start ", t.start, ", completion ", t.completion,
               ", commit ", t.commit_end);
        break;
      }
      if (t.commit_end < prev_commit) {
        r.fail(ViolationKind::kTraceInconsistent, "thread ", t.thread,
               " commits before its predecessor");
        break;
      }
      if (t.core != pol->core_of(t.thread)) {
        r.fail(ViolationKind::kTraceInconsistent, "thread ", t.thread, " ran on core ", t.core,
               ", the ", policy::to_string(cfg.policy), " policy places it on ",
               pol->core_of(t.thread));
        break;
      }
      prev_commit = t.commit_end;
      sync += t.sync_stall;
      extra_attempts += t.attempts - 1;
    }
    if (sync != sim.stats.sync_stall_cycles) {
      r.fail(ViolationKind::kTraceInconsistent, "trace sync stalls sum to ", sync,
             ", stats say ", sim.stats.sync_stall_cycles);
    }
    if (extra_attempts != sim.stats.misspeculations) {
      r.fail(ViolationKind::kTraceInconsistent, "trace re-executions sum to ", extra_attempts,
             ", stats count ", sim.stats.misspeculations, " misspeculations");
    }
    if (sim.trace.back().commit_end != sim.stats.total_cycles) {
      r.fail(ViolationKind::kTraceInconsistent, "last commit at ", sim.trace.back().commit_end,
             ", stats total_cycles ", sim.stats.total_cycles);
    }
  }

  // --- Single-core baseline invariants ------------------------------------
  if (opts.run_baseline) {
    const spmt::SingleCoreStats single =
        spmt::run_single_threaded(loop, sched.machine(), cfg, streams, n);
    if (single.instances_executed != expected_instances) {
      r.fail(ViolationKind::kBaseline, "single-core executed ", single.instances_executed,
             " instances, expected ", expected_instances);
    }
    // Issue width bounds throughput; a cycle count below this is not a
    // fast core, it is an accounting bug.
    const std::int64_t floor =
        (expected_instances + sched.machine().issue_width() - 1) / sched.machine().issue_width();
    if (single.total_cycles < floor) {
      r.fail(ViolationKind::kBaseline, "single-core total_cycles ", single.total_cycles,
             " below the issue-width floor ", floor);
    }
  }

  return report;
}

}  // namespace tms::check
