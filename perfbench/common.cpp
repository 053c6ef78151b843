#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <sstream>

#include "support/rng.hpp"

namespace tmsperf {

void Report::fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double logs = 0.0;
  for (const double x : v) logs += std::log(x);
  return std::exp(logs / static_cast<double>(v.size()));
}

bool tail_supported(std::size_t n, double q) {
  return static_cast<double>(n) * (1.0 - q) >= 10.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {
std::atomic<std::uint64_t> host_ref_sink{0};
}  // namespace

double host_ref_ms() {
  // Two fixed kernels, each set up (and its memory touched) before the
  // clock starts: integer hash mixing over a 512 KiB table, which tracks
  // core speed, and a dependent pointer chase through a 4 MiB random
  // cycle, which tracks the caches that co-tenants share. On the 4-vCPU
  // development host, slow periods showed in a pointer chase far more
  // than in the mixing. The buffers stay well under every workload's
  // peak RSS and are freed again.
  std::vector<std::uint64_t> table(1u << 16);
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  auto xorshift = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (std::uint64_t& e : table) e = xorshift();
  // Sattolo's shuffle of the identity is one cycle through every slot.
  std::vector<std::uint32_t> next((4u << 20) / sizeof(std::uint32_t));
  std::iota(next.begin(), next.end(), 0u);
  for (std::size_t i = next.size() - 1; i > 0; --i) std::swap(next[i], next[xorshift() % i]);

  const Clock::time_point t = Clock::now();
  std::uint64_t acc = 0;
  for (int pass = 0; pass < 32; ++pass) {
    for (std::size_t i = 0; i < table.size(); ++i) {
      const std::uint64_t j = (table[i] ^ acc) & (table.size() - 1);
      acc = (acc + table[j]) * 0x9e3779b97f4a7c15ULL;
      table[i] ^= acc >> 17;
    }
  }
  std::uint32_t at = 0;
  for (int step = 0; step < 500000; ++step) at = next[at];
  const double ms = ms_since(t);
  // Keep the results observable so the work cannot be elided.
  host_ref_sink.store(acc + at, std::memory_order_relaxed);
  return ms;
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  tms::support::SplitMix64 sm(seed * 0x9e3779b97f4a7c15ULL ^ tag);
  return sm.next();
}

std::uint64_t digest(const std::string& s, std::uint64_t h) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

tms::ir::Loop relabel(const tms::ir::Loop& loop, std::uint64_t seed) {
  if (seed == 0) return loop;
  const int n = loop.num_instrs();
  // order[new_id] = old_id: a Fisher-Yates shuffle from the seed.
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  tms::support::Rng rng(seed);
  for (int i = n - 1; i > 0; --i) {
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(rng.uniform_int(0, i))]);
  }
  std::vector<int> new_id(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) new_id[static_cast<std::size_t>(order[static_cast<std::size_t>(i)])] = i;

  tms::ir::Loop out(loop.name());
  out.reserve(n, loop.deps().size());
  for (int i = 0; i < n; ++i) {
    const tms::ir::Instr& in = loop.instr(order[static_cast<std::size_t>(i)]);
    out.add_instr(in.op, in.name);
  }
  for (const tms::ir::DepEdge& e : loop.deps()) {
    out.add_dep(new_id[static_cast<std::size_t>(e.src)], new_id[static_cast<std::size_t>(e.dst)],
                e.kind, e.type, e.distance, e.probability);
  }
  for (const tms::ir::NodeId v : loop.live_ins()) out.mark_live_in(new_id[static_cast<std::size_t>(v)]);
  out.set_coverage(loop.coverage());
  return out;
}

// ---- Tracer ---------------------------------------------------------------

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* t, const char* name, std::int64_t id) : t_(t) {
  if (t_ == nullptr) return;
  Span s;
  s.name = name;
  s.parent = t_->open_.empty() ? -1 : t_->open_.back();
  s.id = id;
  s.tid = t_->tid_;
  index_ = static_cast<int>(t_->spans_.size());
  t_->open_.push_back(index_);
  s.start_ns = t_->now_ns();
  t_->spans_.push_back(std::move(s));
}

Tracer::Scope::~Scope() {
  if (t_ == nullptr) return;
  t_->spans_[static_cast<std::size_t>(index_)].end_ns = t_->now_ns();
  t_->open_.pop_back();
}

void Tracer::merge(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

double Tracer::total_ms(const std::string& name) const {
  double ns = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns / 1e6;
}

std::vector<double> Tracer::durations_ms(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
  }
  return out;
}

std::string Tracer::chrome_json() const {
  std::int64_t t0 = 0;
  for (const Span& s : spans_) t0 = (t0 == 0 || s.start_ns < t0) ? s.start_ns : t0;
  std::ostringstream os;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    char buf[160];
    std::snprintf(buf, sizeof buf, "%.3f,\"dur\":%.3f", static_cast<double>(s.start_ns - t0) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << s.name << "\",\"cat\":\"" << layer
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << buf
       << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent << ",\"id\":" << s.id << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::string Tracer::layer_table() const {
  struct Row {
    std::uint64_t count = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  // Children of one span never overlap (they run on the span's thread,
  // one after another), so covered time is the sum of their durations.
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.end_ns - s.start_ns);
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& r = rows[s.name];
    const double dur = static_cast<double>(s.end_ns - s.start_ns);
    ++r.count;
    r.total_ns += dur;
    r.self_ns += dur - child_ns[i];
  }
  std::ostringstream os;
  char buf[200];
  std::snprintf(buf, sizeof buf, "%-8s %-36s %10s %14s %14s\n", "layer", "span", "count",
                "total_ms", "self_ms");
  os << buf;
  for (const auto& [name, r] : rows) {
    std::snprintf(buf, sizeof buf, "%-8s %-36s %10llu %14.3f %14.3f\n",
                  name.substr(0, name.find('.')).c_str(), name.c_str(),
                  static_cast<unsigned long long>(r.count), r.total_ns / 1e6, r.self_ns / 1e6);
    os << buf;
  }
  return os.str();
}

void write_trace(const Options& opts, const Tracer& tr, Report& r) {
  const std::string name = "trace-" + opts.workload + "-" + std::to_string(opts.seed) + ".json";
  std::ofstream out(name, std::ios::binary | std::ios::trunc);
  out << tr.chrome_json();
  if (!out) r.fail("cannot write " + opts.work_dir + "/" + name);
  std::printf("%s", tr.layer_table().c_str());
  std::printf("trace: %s/%s\n", opts.work_dir.c_str(), name.c_str());
}

}  // namespace tmsperf
