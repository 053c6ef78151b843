// Shared evaluation harness for the benchmark binaries.
//
// Wraps the full pipeline (schedule with SMS and TMS -> lower -> simulate
// on the SpMT machine -> aggregate per benchmark) the way Section 5 of
// the paper evaluates: per-loop metrics like Table 2/3, simulated loop
// speedups weighted by loop coverage, and program speedups via Amdahl's
// law over the benchmark's coverage.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"
#include "sched/postpass.hpp"
#include "sched/sms.hpp"
#include "sched/tms.hpp"
#include "spmt/sim.hpp"
#include "spmt/single_core.hpp"

namespace tms::support {
class JsonWriter;
}

namespace tms::bench {

/// One loop scheduled both ways. The loop is heap-owned so Schedule's
/// internal pointer stays valid as LoopEvals move around.
struct LoopEval {
  std::string benchmark;
  std::unique_ptr<ir::Loop> loop;
  std::optional<sched::SmsResult> sms;
  std::optional<sched::TmsResult> tms;
  sched::LoopMetrics m_sms;
  sched::LoopMetrics m_tms;
};

LoopEval schedule_loop(std::string benchmark, ir::Loop loop, const machine::MachineModel& mach,
                       const machine::SpmtConfig& cfg);

/// Schedules the full 13-benchmark synthetic SPECfp2000 suite (778 loops)
/// on a driver::JobPool: loops are built and scheduled in parallel
/// (`jobs` worker threads; 0 = hardware_concurrency) with one private RNG
/// per job, and results are returned in deterministic suite order
/// regardless of the thread count.
std::vector<LoopEval> schedule_suite(const machine::MachineModel& mach,
                                     const machine::SpmtConfig& cfg, int jobs = 0);

/// Schedules the seven selected DOACROSS loops of Table 3.
std::vector<LoopEval> schedule_selected(const machine::MachineModel& mach,
                                        const machine::SpmtConfig& cfg);

struct SimPair {
  spmt::SpmtStats sms;
  spmt::SpmtStats tms;
};

/// Simulates both schedules of a loop on the SpMT machine.
SimPair simulate_pair(const LoopEval& e, const machine::SpmtConfig& cfg,
                      std::int64_t iterations, std::uint64_t stream_seed);

/// Simulates one schedule (by reference to its LoopEval).
spmt::SpmtStats simulate_tms(const LoopEval& e, const machine::SpmtConfig& cfg,
                             std::int64_t iterations, std::uint64_t stream_seed,
                             bool disable_speculation = false);

/// Single-threaded baseline cycles for the loop.
std::int64_t simulate_single(const LoopEval& e, const machine::MachineModel& mach,
                             const machine::SpmtConfig& cfg, std::int64_t iterations,
                             std::uint64_t stream_seed);

/// Coverage-weighted aggregation of per-loop speedups into a benchmark
/// loop speedup and a whole-program speedup (Amdahl). `speedup[i]` is the
/// per-loop time ratio base/new; `coverage[i]` the loop's share of
/// program time.
struct AggregateSpeedup {
  double loop_speedup_pct = 0.0;     ///< aggregated over the loops only
  double program_speedup_pct = 0.0;  ///< over the whole program
};
AggregateSpeedup aggregate_speedups(const std::vector<double>& speedup,
                                    const std::vector<double>& coverage);

/// Parses an optional "--iterations N" used by the bench binaries;
/// returns `fallback` when absent. A value that is not an integer >= 1
/// is a usage error: the binary exits 2 with a message naming the flag.
std::int64_t iterations_arg(int argc, char** argv, std::int64_t fallback);

/// Parses "--jobs N"; returns `fallback` when absent (0 lets the JobPool
/// pick hardware_concurrency). A value that is not an integer >= 0 exits
/// 2 the same way.
int jobs_arg(int argc, char** argv, int fallback = 0);

/// Parses "--json PATH"; returns nullptr when absent.
const char* json_path_arg(int argc, char** argv);

/// Writes `text` to `path` (support::write_file_atomic); returns false
/// (with a message on stderr) on failure. Used by the bench binaries'
/// --json emitters.
bool write_text_file(const std::string& path, const std::string& text);

/// Appends an "observability" member — the full process counter snapshot
/// (obs/counters) — to an open JSON object. Called by the bench binaries'
/// --json emitters so their reports carry the work counters (slots
/// tried, squashes, sync stalls, ...) alongside the results.
void append_counters(support::JsonWriter& w);

}  // namespace tms::bench
