// tmsbatch — parallel batch compiler for loop workloads.
//
// Compiles (schedule + validate + optionally simulate) a whole workload
// suite, a directory of .loop files, or explicit .loop files on a
// work-stealing JobPool, consulting a content-addressed schedule cache so
// repeated sweeps hit instead of recompute. The canonical JSON report
// (--stable-json) is byte-identical across --jobs values and cache
// states; see docs/DRIVER.md.
//
// Usage:
//   tmsbatch [loop files...] [options]
//     --suite kernels|doacross|spec|all  add a built-in workload suite
//                                        (default when no input is given:
//                                         kernels + doacross)
//     --dir DIR                add every *.loop file under DIR (sorted)
//     --schedulers LIST        comma list of sms,ims,tms  (default tms)
//     --jobs N                 worker threads             (default ncpu)
//     --cache-dir DIR          persistent schedule cache on disk
//     --cache-capacity N       in-memory cache entries    (default 65536)
//     --cache-disk-max-bytes N bound the on-disk cache; oldest files are
//                              evicted past the bound     (default 0 = unbounded)
//     --no-cache               disable the schedule cache entirely
//     --json PATH              write the JSON report to PATH
//     --stable-json            omit volatile fields (timings, cache info)
//                              from the JSON report
//     --simulate N             simulate N iterations per loop on the SpMT
//                              machine                    (default 0 = off)
//     --oracle N               run the differential oracle with N
//                              iterations per loop        (default off)
//     --no-validate            skip the independent schedule validator
//     --ncore N (cores of the SpMT machine, default 4), --policy P,
//     --policy-stride N, --policy-block N, --bus-bytes N,
//     --bus-bandwidth N        machine flags, shared with tmsc, tmsd and
//                              loadgen (policy::parse_machine_flag,
//                              docs/POLICY.md)
//     --seed S                 batch seed for simulation/oracle streams
//     --quiet                  print only the summary, not the per-job table
//     --trace PATH             record a structured trace of the run and
//                              write it to PATH: Chrome trace_event JSON
//                              (load in Perfetto / chrome://tracing), or
//                              the canonical timestamp-free form when
//                              --stable-json is also given
//     --trace-buf N            trace buffer capacity in events
//                                                         (default 1048576)
//     --explain LOOP           instead of running the batch, schedule the
//                              named loop with TMS under tracing and print
//                              a narrative of the relaxation ladder
//
// Exit status: 0 when every job is ok, 1 when any job failed, 2 on usage
// errors.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "driver/batch.hpp"
#include "driver/compile.hpp"
#include "driver/job_pool.hpp"
#include "driver/schedule_cache.hpp"
#include "ir/textio.hpp"
#include "obs/explain.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "sched/mii.hpp"
#include "sched/tms.hpp"
#include "support/parse.hpp"
#include "workloads/builder.hpp"
#include "workloads/doacross.hpp"
#include "workloads/kernels.hpp"
#include "workloads/spec_suite.hpp"

using namespace tms;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [loop files...] [--suite kernels|doacross|spec|all] [--dir DIR]\n"
               "          [--schedulers sms,ims,tms] [--jobs N] [--cache-dir DIR]\n"
               "          [--cache-capacity N] [--cache-disk-max-bytes N] [--no-cache]\n"
               "          [--json PATH] [--stable-json]\n"
               "          [--simulate N] [--oracle N] [--no-validate] [--seed S]\n%s"
               "          [--quiet] [--trace PATH] [--trace-buf N] [--explain LOOP]\n",
               argv0, policy::kMachineFlagsUsage);
  return 2;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = (comma == std::string::npos) ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

struct NamedLoop {
  std::string name;
  ir::Loop loop{"unnamed"};
};

bool load_loop_file(const std::string& path, std::vector<NamedLoop>& out) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return false;
  }
  auto parsed = ir::parse_loop(file);
  if (const auto* err = std::get_if<ir::ParseError>(&parsed)) {
    std::fprintf(stderr, "%s:%d: %s\n", path.c_str(), err->line, err->message.c_str());
    return false;
  }
  NamedLoop nl;
  nl.loop = std::get<ir::Loop>(std::move(parsed));
  nl.name = std::filesystem::path(path).stem().string();
  out.push_back(std::move(nl));
  return true;
}

void add_kernels(std::vector<NamedLoop>& out) {
  for (workloads::Kernel& k : workloads::classic_kernels()) {
    out.push_back({k.loop.name(), std::move(k.loop)});
  }
}

void add_doacross(std::vector<NamedLoop>& out) {
  for (workloads::SelectedLoop& sel : workloads::doacross_selected_loops()) {
    out.push_back({sel.benchmark + "/" + sel.loop.name(), std::move(sel.loop)});
  }
}

void add_spec_suite(std::vector<NamedLoop>& out, int jobs) {
  // Shape derivation is serial; the 778 build_loop calls parallelise with
  // one private RNG per job (the shape's forked seed).
  struct Item {
    std::string bench;
    workloads::ShapedLoop shaped;
  };
  std::vector<Item> items;
  for (const workloads::BenchmarkSpec& spec : workloads::spec_fp2000_suite()) {
    for (workloads::ShapedLoop& s : workloads::benchmark_shapes(spec)) {
      items.push_back({spec.name, std::move(s)});
    }
  }
  const std::size_t base = out.size();
  out.resize(base + items.size());
  driver::JobPool pool(jobs);
  pool.run(items.size(), [&](std::size_t i) {
    obs::ScopedContext ctx(obs::kCtxSuiteGen, static_cast<std::int32_t>(i));
    ir::Loop loop = workloads::build_loop(items[i].shaped.shape);
    loop.set_coverage(items[i].shaped.coverage);
    out[base + i] = {items[i].bench + "/" + loop.name(), std::move(loop)};
  });
}

/// --explain: schedule one loop with TMS under tracing, render the
/// relaxation-ladder narrative from the captured events.
int run_explain(const NamedLoop& nl, const machine::MachineModel& mach,
                const machine::SpmtConfig& cfg, std::size_t trace_buf) {
  if (!obs::trace_compiled()) {
    std::fprintf(stderr, "--explain needs tracing, but this build has TMS_TRACE=0\n");
    return 2;
  }
  obs::trace_enable(trace_buf);
  std::optional<sched::TmsResult> result;
  {
    obs::ScopedContext ctx(obs::kCtxExplain, 0);
    result = sched::tms_schedule(nl.loop, mach, cfg);
  }

  std::vector<obs::TraceEvent> events = obs::trace_snapshot();
  events.erase(std::remove_if(events.begin(), events.end(),
                              [](const obs::TraceEvent& e) {
                                return e.ctx_phase != obs::kCtxExplain;
                              }),
               events.end());

  obs::ExplainInput in;
  in.loop_name = nl.name;
  in.scheduler = "tms";
  for (ir::NodeId v = 0; v < nl.loop.num_instrs(); ++v) {
    in.node_names.push_back(nl.loop.instr(v).name);
  }
  in.mii = result.has_value() ? result->mii : sched::min_ii(nl.loop, mach);
  if (result.has_value()) {
    in.f_breakdown = cost::f_breakdown(result->schedule.ii(), result->schedule.c_delay(cfg),
                                       result->misspec_probability, cfg);
  }
  in.events = std::move(events);
  std::printf("%s", obs::render_tms_explain(in).c_str());
  if (obs::trace_dropped() > 0) {
    std::fprintf(stderr, "warning: %llu trace event(s) dropped; re-run with a larger --trace-buf\n",
                 static_cast<unsigned long long>(obs::trace_dropped()));
  }
  obs::trace_disable();
  return result.has_value() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::vector<std::string> suites;
  std::vector<std::string> dirs;
  std::vector<std::string> schedulers = {"tms"};
  driver::BatchOptions opts;
  std::string cache_dir;
  std::size_t cache_capacity = 1 << 16;
  std::uint64_t cache_disk_max_bytes = 0;
  bool use_cache = true;
  std::string json_path;
  bool stable_json = false;
  machine::SpmtConfig cfg;
  bool quiet = false;
  std::string trace_path;
  std::size_t trace_buf = 1u << 20;
  std::string explain_loop;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* what) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires an argument\n", what);
        std::exit(2);
      }
      return argv[++i];
    };
    auto int_arg = [&](const char* what, auto& out) {
      if (const auto err = support::parse_int_flag(what, next(what), out)) {
        std::fprintf(stderr, "%s\n", err->c_str());
        std::exit(2);
      }
    };
    if (a == "--suite") {
      suites.push_back(next("--suite"));
    } else if (a == "--dir") {
      dirs.push_back(next("--dir"));
    } else if (a == "--schedulers") {
      schedulers = split_csv(next("--schedulers"));
    } else if (a == "--jobs") {
      int_arg("--jobs", opts.jobs);
    } else if (a == "--cache-dir") {
      cache_dir = next("--cache-dir");
    } else if (a == "--cache-capacity") {
      int_arg("--cache-capacity", cache_capacity);
    } else if (a == "--cache-disk-max-bytes") {
      int_arg("--cache-disk-max-bytes", cache_disk_max_bytes);
    } else if (a == "--no-cache") {
      use_cache = false;
    } else if (a == "--json") {
      json_path = next("--json");
    } else if (a == "--stable-json") {
      stable_json = true;
    } else if (a == "--simulate") {
      int_arg("--simulate", opts.simulate_iterations);
    } else if (a == "--oracle") {
      opts.run_oracle = true;
      int_arg("--oracle", opts.oracle_iterations);
    } else if (a == "--no-validate") {
      opts.validate = false;
    } else if (policy::is_machine_flag(a)) {
      if (const auto err = policy::parse_machine_flag(a, next(a.c_str()), cfg)) {
        std::fprintf(stderr, "%s\n", err->c_str());
        return 2;
      }
    } else if (a == "--seed") {
      int_arg("--seed", opts.seed);
    } else if (a == "--quiet") {
      quiet = true;
    } else if (a == "--trace") {
      trace_path = next("--trace");
    } else if (a == "--trace-buf") {
      int_arg("--trace-buf", trace_buf);
    } else if (a == "--explain") {
      explain_loop = next("--explain");
    } else if (!a.empty() && a[0] == '-') {
      return usage(argv[0]);
    } else {
      files.push_back(a);
    }
  }
  for (const std::string& s : schedulers) {
    if (!driver::known_scheduler(s)) {
      std::fprintf(stderr, "unknown scheduler '%s'\n", s.c_str());
      return 2;
    }
  }

  // Arm the tracer before any loops are built so suite generation is
  // captured too (--explain arms its own buffer later instead).
  const bool tracing = !trace_path.empty() && explain_loop.empty();
  if (tracing) {
    if (!obs::trace_compiled()) {
      std::fprintf(stderr, "--trace needs tracing, but this build has TMS_TRACE=0\n");
      return 2;
    }
    obs::trace_enable(trace_buf);
  }

  std::vector<NamedLoop> loops;
  for (const std::string& f : files) {
    if (!load_loop_file(f, loops)) return 1;
  }
  for (const std::string& d : dirs) {
    std::error_code ec;
    std::vector<std::string> paths;
    for (const auto& entry : std::filesystem::directory_iterator(d, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".loop") {
        paths.push_back(entry.path().string());
      }
    }
    if (ec) {
      std::fprintf(stderr, "cannot read directory %s\n", d.c_str());
      return 1;
    }
    std::sort(paths.begin(), paths.end());  // deterministic job order
    for (const std::string& p : paths) {
      if (!load_loop_file(p, loops)) return 1;
    }
  }
  if (files.empty() && dirs.empty() && suites.empty()) {
    suites = {"kernels", "doacross"};  // the curated default workload
  }
  for (const std::string& s : suites) {
    if (s == "kernels") {
      add_kernels(loops);
    } else if (s == "doacross") {
      add_doacross(loops);
    } else if (s == "spec") {
      add_spec_suite(loops, opts.jobs);
    } else if (s == "all") {
      add_kernels(loops);
      add_doacross(loops);
      add_spec_suite(loops, opts.jobs);
    } else {
      std::fprintf(stderr, "unknown suite '%s'\n", s.c_str());
      return 2;
    }
  }
  if (loops.empty()) {
    std::fprintf(stderr, "no loops to compile\n");
    return 2;
  }

  machine::MachineModel mach;

  if (!explain_loop.empty()) {
    for (const NamedLoop& nl : loops) {
      if (nl.name == explain_loop || nl.loop.name() == explain_loop) {
        return run_explain(nl, mach, cfg, trace_buf);
      }
    }
    std::fprintf(stderr, "--explain: no loaded loop is named '%s'\n", explain_loop.c_str());
    return 2;
  }

  std::vector<driver::BatchJob> jobs;
  jobs.reserve(loops.size() * schedulers.size());
  for (const NamedLoop& nl : loops) {
    for (const std::string& scheduler : schedulers) {
      jobs.push_back({nl.name, nl.loop, cfg, scheduler});
    }
  }

  std::optional<driver::ScheduleCache> cache;
  if (use_cache) cache.emplace(cache_capacity, cache_dir, cache_disk_max_bytes);

  const driver::BatchReport report =
      driver::run_batch(jobs, mach, opts, cache ? &*cache : nullptr);

  if (!quiet) {
    std::printf("%s", report.to_text().c_str());
  } else {
    std::printf("%zu job(s): %d ok, %d failed; %d thread(s), %.1f ms, cache hit rate %.1f%%\n",
                report.results.size(), report.count(driver::JobStatus::kOk),
                static_cast<int>(report.results.size()) - report.count(driver::JobStatus::kOk),
                report.threads, report.wall_ms, 100.0 * report.cache.hit_rate());
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    out << report.to_json(/*include_volatile=*/!stable_json) << '\n';
  }

  if (tracing) {
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    // Canonical (timestamp-free, thread-count-invariant) with
    // --stable-json; Chrome trace_event JSON for Perfetto otherwise.
    out << (stable_json ? obs::trace_canonical_json() : obs::trace_chrome_json()) << '\n';
    if (obs::trace_dropped() > 0) {
      std::fprintf(stderr,
                   "warning: %llu trace event(s) dropped%s; re-run with a larger --trace-buf\n",
                   static_cast<unsigned long long>(obs::trace_dropped()),
                   stable_json ? " (canonical trace is not comparable across runs)" : "");
    }
    obs::trace_disable();
  }

  return report.count(driver::JobStatus::kOk) == static_cast<int>(report.results.size()) ? 0 : 1;
}
