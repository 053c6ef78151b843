// Shared pieces of the tmsperf benchmark: options, the report every
// workload fills, sample statistics, the host reference computation, and
// the span recorder used by traced runs.
//
// tmsperf links the repository's libraries unchanged. Everything here is
// benchmark-side: spans are recorded around the benchmark's own calls into
// the libraries' public functions, never inside them.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ir/loop.hpp"

namespace tmsperf {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;  ///< 0 reproduces the canonical inputs
  double seconds = 10.0;   ///< length of the timed phase
  bool trace = false;      ///< per-layer (traced) run instead of end-to-end
  bool small = false;      ///< reduced inputs, for the determinism self-test
  /// The process runs inside it: sockets and the trace file go there.
  std::string work_dir = ".bench_build/perfbench/work";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run produced. `end_to_end` carries the metric names of
/// BENCHMARK.json's end_to_end list; `layers` its per_layer list; `detail`
/// the workload's own names for the same numbers; `work` the deterministic
/// values and work counts the self-test compares across runs.
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure descriptions
  std::vector<Metric> end_to_end;
  std::vector<Metric> detail;
  std::vector<Metric> work;
  std::vector<Metric> layers;

  /// Counts one failed output check and keeps its description.
  void fail(const std::string& what);
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end.push_back({name, v, unit});
  }
  void det(const std::string& name, double v, const std::string& unit) {
    detail.push_back({name, v, unit});
  }
  void count(const std::string& name, double v, const std::string& unit) {
    work.push_back({name, v, unit});
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    layers.push_back({name, v, unit});
  }
};

// ---- sample statistics ------------------------------------------------

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// Geometric mean of positive values; 0 for an empty sample.
double geomean(const std::vector<double>& v);
/// Whether at least ten samples lie above quantile q.
bool tail_supported(std::size_t n, double q);

/// Runs the set-up step `reps` times and returns the median duration in
/// seconds. Before each repetition `reset`, untimed, clears what the
/// previous one left, so the workload continues with the last one's state.
template <class Reset, class F>
double median_setup_s(int reps, Reset&& reset, F&& step) {
  std::vector<double> secs;
  for (int i = 0; i < reps; ++i) {
    reset();
    const Clock::time_point t = Clock::now();
    step();
    secs.push_back(ms_since(t) / 1000.0);
  }
  return median(secs);
}

// ---- host and process -------------------------------------------------

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// A fixed computation that uses no repository code (integer hashing and
/// a pointer chase), timed in milliseconds. It is the same work on every
/// commit, so a change in it means the host changed speed.
double host_ref_ms();

// ---- inputs -------------------------------------------------------------

/// The same loop with its instructions renumbered by a permutation drawn
/// from `seed` (edges, live-ins and names follow their instructions).
/// seed 0 returns the loop unchanged. The dependence graph is isomorphic,
/// so the scheduling problem keeps its size and shape while node-id
/// tie-breaks change.
tms::ir::Loop relabel(const tms::ir::Loop& loop, std::uint64_t seed);

/// Mixes a workload seed with a stream tag (splitmix64).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// FNV-1a over a string, for input digests.
std::uint64_t digest(const std::string& s, std::uint64_t h = 0xcbf29ce484222325ULL);

// ---- spans ------------------------------------------------------------

/// Records spans on one thread: name, start, end, parent and the loop or
/// request id the work belongs to. Not thread-safe; a multi-threaded
/// phase gives each thread its own Tracer and merges them afterwards.
class Tracer {
 public:
  struct Span {
    std::string name;       ///< "<layer>.<function>", e.g. "sched.tms_schedule"
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;        ///< index into spans(), -1 for a root
    std::int64_t id = -1;   ///< loop or request id
    int tid = 0;
  };

  explicit Tracer(int tid = 0) : tid_(tid) {}

  /// RAII span; nested scopes on the same Tracer become children.
  class Scope {
   public:
    Scope(Tracer* t, const char* name, std::int64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int index_ = -1;
  };

  const std::vector<Span>& spans() const { return spans_; }
  /// Appends another tracer's spans (parents re-based).
  void merge(const Tracer& other);

  /// Total duration of spans called `name`, in ms.
  double total_ms(const std::string& name) const;
  /// Durations of spans called `name`, in ms, in recording order.
  std::vector<double> durations_ms(const std::string& name) const;

  /// Chrome trace-event JSON ("X" events; args carry id and parent).
  std::string chrome_json() const;
  /// Per-span-name table: count, total ms and self ms (duration minus
  /// the time its child spans cover), grouped by layer.
  std::string layer_table() const;

 private:
  std::int64_t now_ns() const;

  int tid_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Writes a traced run's spans as a Chrome trace into the working
/// directory (the work directory) and prints the per-layer table and the
/// file's path; a write error counts as a failed check.
void write_trace(const Options& opts, const Tracer& tr, Report& r);

// ---- workloads ----------------------------------------------------------

Report run_compile_suite(const Options& opts);
Report run_serve_mix(const Options& opts);
Report run_simulate_doacross(const Options& opts);

}  // namespace tmsperf
