#include "harness.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "codegen/kernel_program.hpp"
#include "driver/job_pool.hpp"
#include "obs/counters.hpp"
#include "spmt/address.hpp"
#include "support/assert.hpp"
#include "support/file.hpp"
#include "support/json.hpp"
#include "support/parse.hpp"
#include "workloads/builder.hpp"
#include "workloads/doacross.hpp"
#include "workloads/spec_suite.hpp"

namespace tms::bench {

LoopEval schedule_loop(std::string benchmark, ir::Loop loop, const machine::MachineModel& mach,
                       const machine::SpmtConfig& cfg) {
  LoopEval e;
  e.benchmark = std::move(benchmark);
  e.loop = std::make_unique<ir::Loop>(std::move(loop));
  e.sms = sched::sms_schedule(*e.loop, mach);
  TMS_ASSERT_MSG(e.sms.has_value(), "SMS failed on a workload loop");
  e.tms = sched::tms_schedule(*e.loop, mach, cfg);
  TMS_ASSERT_MSG(e.tms.has_value(), "TMS failed on a workload loop");
  e.m_sms = sched::measure(e.sms->schedule, cfg);
  e.m_tms = sched::measure(e.tms->schedule, cfg);
  return e;
}

std::vector<LoopEval> schedule_suite(const machine::MachineModel& mach,
                                     const machine::SpmtConfig& cfg, int jobs) {
  // Shape derivation is serial (one RNG stream per benchmark); the
  // expensive build + schedule step runs per job, each job constructing
  // its loop from the shape's private forked seed. Results land at their
  // submission index, so suite order is independent of the thread count.
  struct Item {
    std::string benchmark;
    workloads::ShapedLoop shaped;
  };
  std::vector<Item> items;
  for (const workloads::BenchmarkSpec& spec : workloads::spec_fp2000_suite()) {
    for (workloads::ShapedLoop& s : workloads::benchmark_shapes(spec)) {
      items.push_back({spec.name, std::move(s)});
    }
  }

  std::vector<LoopEval> out(items.size());
  driver::JobPool pool(jobs);
  pool.run(items.size(), [&](std::size_t i) {
    ir::Loop loop = workloads::build_loop(items[i].shaped.shape);
    loop.set_coverage(items[i].shaped.coverage);
    out[i] = schedule_loop(items[i].benchmark, std::move(loop), mach, cfg);
  });
  return out;
}

std::vector<LoopEval> schedule_selected(const machine::MachineModel& mach,
                                        const machine::SpmtConfig& cfg) {
  std::vector<LoopEval> out;
  for (workloads::SelectedLoop& sel : workloads::doacross_selected_loops()) {
    out.push_back(schedule_loop(sel.benchmark, std::move(sel.loop), mach, cfg));
  }
  return out;
}

namespace {

spmt::SpmtStats simulate(const ir::Loop& loop, const sched::Schedule& sched,
                         const machine::SpmtConfig& cfg, std::int64_t iterations,
                         std::uint64_t stream_seed, bool disable_speculation) {
  const spmt::AddressStreams streams = spmt::default_streams(loop, stream_seed);
  const codegen::KernelProgram kp = codegen::lower_kernel(sched, cfg);
  spmt::SpmtOptions opts;
  opts.iterations = iterations;
  opts.keep_memory = false;
  opts.disable_speculation = disable_speculation;
  return spmt::run_spmt(loop, kp, cfg, streams, opts).stats;
}

}  // namespace

SimPair simulate_pair(const LoopEval& e, const machine::SpmtConfig& cfg,
                      std::int64_t iterations, std::uint64_t stream_seed) {
  SimPair p;
  p.sms = simulate(*e.loop, e.sms->schedule, cfg, iterations, stream_seed, false);
  p.tms = simulate(*e.loop, e.tms->schedule, cfg, iterations, stream_seed, false);
  return p;
}

spmt::SpmtStats simulate_tms(const LoopEval& e, const machine::SpmtConfig& cfg,
                             std::int64_t iterations, std::uint64_t stream_seed,
                             bool disable_speculation) {
  return simulate(*e.loop, e.tms->schedule, cfg, iterations, stream_seed, disable_speculation);
}

std::int64_t simulate_single(const LoopEval& e, const machine::MachineModel& mach,
                             const machine::SpmtConfig& cfg, std::int64_t iterations,
                             std::uint64_t stream_seed) {
  const spmt::AddressStreams streams = spmt::default_streams(*e.loop, stream_seed);
  return spmt::run_single_threaded(*e.loop, mach, cfg, streams, iterations).total_cycles;
}

AggregateSpeedup aggregate_speedups(const std::vector<double>& speedup,
                                    const std::vector<double>& coverage) {
  TMS_ASSERT(speedup.size() == coverage.size());
  double cov_total = 0.0;
  double scaled = 0.0;  // sum of cov_i / s_i: the loops' share of time after
  for (std::size_t i = 0; i < speedup.size(); ++i) {
    TMS_ASSERT(speedup[i] > 0.0);
    cov_total += coverage[i];
    scaled += coverage[i] / speedup[i];
  }
  AggregateSpeedup out;
  if (cov_total > 0.0 && scaled > 0.0) {
    out.loop_speedup_pct = (cov_total / scaled - 1.0) * 100.0;
    out.program_speedup_pct = (1.0 / ((1.0 - cov_total) + scaled) - 1.0) * 100.0;
  }
  return out;
}

namespace {

/// The value that follows `flag` in argv, or nullptr when the flag is
/// absent. A flag with nothing after it is a usage error (exit 2).
const char* flag_value(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires an argument\n", flag);
      std::exit(2);
    }
    return argv[i + 1];
  }
  return nullptr;
}

/// `flag`'s integer value, or `fallback` when the flag is absent. A
/// value that is not an integer, or is below `min`, exits 2.
template <typename T>
T int_flag(int argc, char** argv, const char* flag, T min, T fallback) {
  const char* text = flag_value(argc, argv, flag);
  if (text == nullptr) return fallback;
  T value = fallback;
  if (const auto err = support::parse_int_flag(flag, text, value)) {
    std::fprintf(stderr, "%s\n", err->c_str());
    std::exit(2);
  }
  if (value < min) {
    std::fprintf(stderr, "%s: must be >= %lld, got %s\n", flag, static_cast<long long>(min),
                 text);
    std::exit(2);
  }
  return value;
}

}  // namespace

std::int64_t iterations_arg(int argc, char** argv, std::int64_t fallback) {
  return int_flag<std::int64_t>(argc, argv, "--iterations", 1, fallback);
}

int jobs_arg(int argc, char** argv, int fallback) {
  return int_flag<int>(argc, argv, "--jobs", 0, fallback);
}

const char* json_path_arg(int argc, char** argv) { return flag_value(argc, argv, "--json"); }

bool write_text_file(const std::string& path, const std::string& text) {
  if (const auto err = support::write_file_atomic(path, text)) {
    std::fprintf(stderr, "%s\n", err->c_str());
    return false;
  }
  return true;
}

void append_counters(support::JsonWriter& w) {
  w.key("observability");
  obs::write_counters_json(w, obs::counters_snapshot());
}

}  // namespace tms::bench
