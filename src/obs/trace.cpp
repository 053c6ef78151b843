#include "obs/trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <random>
#include <unordered_set>

#include "obs/counters.hpp"
#include "support/json.hpp"
#include "support/line_codec.hpp"

namespace tms::obs {
namespace {

using Clock = std::chrono::steady_clock;

struct ThreadCtx {
  std::int32_t phase = -1;
  std::int32_t item = -1;
  std::uint32_t seq = 0;
  std::uint32_t tid = 0;
  bool tid_assigned = false;
};

thread_local ThreadCtx t_ctx;
thread_local TraceContext t_trace;

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_head{0};
std::atomic<std::uint64_t> g_dropped{0};
std::atomic<std::uint32_t> g_next_tid{1};

// Guards buffer (re)allocation only; recording never takes it.
std::mutex g_buf_mutex;
std::atomic<std::vector<TraceEvent>*> g_buf{nullptr};

Clock::time_point epoch() {
  static const Clock::time_point e = Clock::now();
  return e;
}

std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - epoch()).count();
}

std::uint32_t this_tid() {
  if (!t_ctx.tid_assigned) {
    t_ctx.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    t_ctx.tid_assigned = true;
  }
  return t_ctx.tid;
}

/// Claims a slot and stamps the logical position; returns nullptr when
/// the tracer is off or the buffer is full.
TraceEvent* claim() {
  std::vector<TraceEvent>* buf = g_buf.load(std::memory_order_acquire);
  if (buf == nullptr) return nullptr;
  const std::uint64_t idx = g_head.fetch_add(1, std::memory_order_relaxed);
  if (idx >= buf->size()) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    counters().trace_events_dropped.add(1);
    return nullptr;
  }
  TraceEvent* e = &(*buf)[idx];
  e->ctx_phase = t_ctx.phase;
  e->ctx_item = t_ctx.item;
  // Events outside any context (phase -1) sort by arrival order in the
  // canonical export (they are main-thread-only by contract), so their
  // sequence number must not leak thread-local state across resets.
  e->seq = t_ctx.phase < 0 ? 0 : t_ctx.seq++;
  e->tid = this_tid();
  return e;
}

void write_args_json(support::JsonWriter& w, const TraceEvent& e, bool with_ids) {
  w.key("args").begin_object();
  for (int i = 0; i < e.nargs; ++i) {
    const TraceArg& a = e.args[i];
    switch (a.kind) {
      case TraceArg::Kind::kInt: w.member(a.key, a.i); break;
      case TraceArg::Kind::kStr: w.member(a.key, a.s != nullptr ? a.s : ""); break;
      case TraceArg::Kind::kDouble: w.member(a.key, a.d); break;
    }
  }
  // Distributed-trace identity, hex like the wire form. Only in the
  // Chrome export: minted ids would break canonical byte-identity.
  if (with_ids && e.trace_id != 0) {
    w.member("trace_id", support::hex16(e.trace_id));
    w.member("span_id", support::hex16(e.span_id));
    if (e.parent_span_id != 0) w.member("parent_span_id", support::hex16(e.parent_span_id));
  }
  w.end_object();
}

}  // namespace

bool trace_compiled() { return TMS_TRACE != 0; }

bool trace_on() { return g_enabled.load(std::memory_order_relaxed); }

void trace_enable(std::size_t capacity) {
  std::lock_guard<std::mutex> lock(g_buf_mutex);
  if (capacity == 0) capacity = 1;
  g_enabled.store(false, std::memory_order_relaxed);
  delete g_buf.load(std::memory_order_relaxed);
  g_buf.store(new std::vector<TraceEvent>(capacity), std::memory_order_release);
  g_head.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
  (void)epoch();  // pin the epoch before the first event
  g_enabled.store(true, std::memory_order_release);
}

void trace_disable() {
  std::lock_guard<std::mutex> lock(g_buf_mutex);
  g_enabled.store(false, std::memory_order_relaxed);
  delete g_buf.load(std::memory_order_relaxed);
  g_buf.store(nullptr, std::memory_order_release);
  g_head.store(0, std::memory_order_relaxed);
}

void trace_reset() {
  std::lock_guard<std::mutex> lock(g_buf_mutex);
  g_head.store(0, std::memory_order_relaxed);
  g_dropped.store(0, std::memory_order_relaxed);
}

std::uint64_t trace_dropped() { return g_dropped.load(std::memory_order_relaxed); }

std::size_t trace_event_count() {
  std::lock_guard<std::mutex> lock(g_buf_mutex);
  const std::vector<TraceEvent>* buf = g_buf.load(std::memory_order_relaxed);
  if (buf == nullptr) return 0;
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(g_head.load(std::memory_order_relaxed), buf->size()));
}

std::vector<TraceEvent> trace_snapshot() {
  std::lock_guard<std::mutex> lock(g_buf_mutex);
  const std::vector<TraceEvent>* buf = g_buf.load(std::memory_order_relaxed);
  if (buf == nullptr) return {};
  const std::size_t n = static_cast<std::size_t>(
      std::min<std::uint64_t>(g_head.load(std::memory_order_relaxed), buf->size()));
  return std::vector<TraceEvent>(buf->begin(), buf->begin() + static_cast<std::ptrdiff_t>(n));
}

std::uint64_t mint_id() {
  // Per-process random seed + a splitmix64 walk: unique within the
  // process by the counter, disjoint across cluster daemons by the
  // seed, never zero (zero means "no trace").
  static const std::uint64_t seed = [] {
    std::random_device rd;
    std::uint64_t s = (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
    s ^= static_cast<std::uint64_t>(
        std::chrono::steady_clock::now().time_since_epoch().count());
    return s != 0 ? s : 0x9e3779b97f4a7c15ull;
  }();
  static std::atomic<std::uint64_t> next{1};
  for (;;) {
    std::uint64_t x = seed + 0x9e3779b97f4a7c15ull * next.fetch_add(1, std::memory_order_relaxed);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    if (x != 0) return x;
  }
}

TraceContext current_trace_context() { return t_trace; }

ScopedTraceContext::ScopedTraceContext(std::uint64_t trace_id, std::uint64_t parent_span_id)
    : saved_(t_trace) {
  if (trace_id != 0) {
    trace_id_ = trace_id;
    span_id_ = mint_id();
    t_trace.trace_id = trace_id;
    t_trace.span_id = span_id_;
    t_trace.parent_span_id = parent_span_id;
    t_trace.adopt = true;
  } else {
    t_trace = TraceContext{};
  }
}

ScopedTraceContext::~ScopedTraceContext() { t_trace = saved_; }

const char* intern(std::string_view s) {
  static std::mutex mutex;
  static std::unordered_set<std::string>* pool = new std::unordered_set<std::string>();
  std::lock_guard<std::mutex> lock(mutex);
  return pool->emplace(s).first->c_str();
}

void emit_instant(const char* cat, const char* name, std::initializer_list<TraceArg> args) {
  if (!trace_on()) return;
  TraceEvent* e = claim();
  if (e == nullptr) return;
  e->cat = cat;
  e->name = name;
  e->phase = 'i';
  e->ts_us = now_us();
  e->dur_us = 0;
  e->nargs = 0;
  // Instants hang off the innermost open span without minting an id.
  e->trace_id = t_trace.trace_id;
  e->span_id = 0;
  e->parent_span_id = t_trace.span_id;
  for (const TraceArg& a : args) {
    if (e->nargs >= TraceEvent::kMaxArgs) break;
    e->args[e->nargs++] = a;
  }
}

SpanGuard::SpanGuard(const char* cat, const char* name) : cat_(cat), name_(name) {
  active_ = trace_on();
  if (active_) start_us_ = now_us();
  // Distributed-trace ids are minted (or adopted) whenever the thread is
  // inside a trace, even while the tracer is disarmed: servers echo the
  // span id on the wire regardless of whether events are being kept.
  if (t_trace.trace_id != 0) {
    trace_id_ = t_trace.trace_id;
    if (t_trace.adopt) {
      span_id_ = t_trace.span_id;
      parent_span_id_ = t_trace.parent_span_id;
      t_trace.adopt = false;
      saved_span_id_ = t_trace.span_id;
    } else {
      span_id_ = mint_id();
      parent_span_id_ = t_trace.span_id;
      saved_span_id_ = t_trace.span_id;
      t_trace.span_id = span_id_;
    }
    ctx_pushed_ = true;
  }
}

void SpanGuard::arg(const TraceArg& a) {
  if (!active_ || nargs_ >= TraceEvent::kMaxArgs) return;
  args_[nargs_++] = a;
}

SpanGuard::~SpanGuard() {
  if (ctx_pushed_) t_trace.span_id = saved_span_id_;
  if (!active_ || !trace_on()) return;
  TraceEvent* e = claim();
  if (e == nullptr) return;
  e->cat = cat_;
  e->name = name_;
  e->phase = 'X';
  e->ts_us = start_us_;
  e->dur_us = now_us() - start_us_;
  e->trace_id = trace_id_;
  e->span_id = span_id_;
  e->parent_span_id = parent_span_id_;
  e->nargs = nargs_;
  for (int i = 0; i < nargs_; ++i) e->args[i] = args_[i];
}

ScopedContext::ScopedContext(std::int32_t phase, std::int32_t item)
    : saved_phase_(t_ctx.phase), saved_item_(t_ctx.item), saved_seq_(t_ctx.seq) {
  t_ctx.phase = phase;
  t_ctx.item = item;
  t_ctx.seq = 0;
}

ScopedContext::~ScopedContext() {
  t_ctx.phase = saved_phase_;
  t_ctx.item = saved_item_;
  t_ctx.seq = saved_seq_;
}

std::string trace_chrome_json() {
  const std::vector<TraceEvent> events = trace_snapshot();
  support::JsonWriter w;
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const TraceEvent& e : events) {
    w.begin_object();
    w.member("name", e.name);
    w.member("cat", e.cat);
    w.member("ph", std::string_view(&e.phase, 1));
    w.member("ts", e.ts_us);
    if (e.phase == 'X') w.member("dur", e.dur_us);
    w.member("pid", 1);
    w.member("tid", static_cast<std::int64_t>(e.tid));
    write_args_json(w, e, /*with_ids=*/true);
    w.end_object();
  }
  w.end_array();
  w.key("otherData").begin_object();
  w.member("schema", "tmstrace-chrome-v1");
  w.member("dropped", trace_dropped());
  w.end_object();
  w.end_object();
  return w.str();
}

std::string trace_canonical_json() {
  std::vector<TraceEvent> events = trace_snapshot();
  std::stable_sort(events.begin(), events.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.ctx_phase != b.ctx_phase) return a.ctx_phase < b.ctx_phase;
    if (a.ctx_item != b.ctx_item) return a.ctx_item < b.ctx_item;
    return a.seq < b.seq;
  });
  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "tmstrace-canonical-v1");
  w.member("dropped", trace_dropped());
  w.key("events").begin_array();
  for (const TraceEvent& e : events) {
    w.begin_object();
    w.member("phase", e.ctx_phase);
    w.member("item", e.ctx_item);
    w.member("seq", static_cast<std::int64_t>(e.seq));
    w.member("cat", e.cat);
    w.member("name", e.name);
    w.member("ph", std::string_view(&e.phase, 1));
    write_args_json(w, e, /*with_ids=*/false);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace tms::obs
