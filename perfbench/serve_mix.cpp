// serve_mix: a closed loop of 2 client connections against an in-process
// router::LocalCluster (2 shards, one compile worker each, peer fill on,
// caches large enough that nothing is evicted).
//
// Inputs: a fixed hot set of 96 suite loops of at most 48 instructions and
// a fixed pool of never-seen "cold" loops of 12-40 instructions, kept as
// text; the seed renumbers the instructions of both (see relabel) and
// drives the hot draws. Every kColdEvery-th request of a client carries
// its next cold loop and the others a uniformly drawn hot loop, so the
// median falls among cache hits and p99 among misses. A fixed cold share
// and fixed cold problems keep a run's mix of work the same for every seed.
// Set-up: cluster start plus the hot-set warm-up, repeated and reported as
// a median. Timed phase: both clients for --seconds.
//
// The traced run sends a fixed number of requests untraced and then
// traced, with a span around every Client::compile, and afterwards times
// the public text-path functions on each traced request's own payload.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "check/validate.hpp"
#include "codegen/kernel_program.hpp"
#include "common.hpp"
#include "cost/cost_model.hpp"
#include "driver/schedule_cache.hpp"
#include "ir/textio.hpp"
#include "machine/machine.hpp"
#include "obs/counters.hpp"
#include "router/cluster.hpp"
#include "sched/postpass.hpp"
#include "sched/schedule.hpp"
#include "serve/client.hpp"
#include "serve/message.hpp"
#include "spmt/estimate.hpp"
#include "support/rng.hpp"
#include "workloads/builder.hpp"
#include "workloads/spec_suite.hpp"

namespace tmsperf {
namespace {

using namespace tms;

constexpr int kClients = 2;
constexpr int kHotSet = 96;
constexpr int kHotMaxInstrs = 48;
constexpr int kColdEvery = 20;  ///< one request in 20 (5%) is cold
constexpr int kSetupReps = 3;
constexpr int kTracedRequests = 1500;  ///< per client, per traced-run phase
/// Long enough that pipeline fill and drain do not dominate cycles/iter.
constexpr std::int64_t kHotSimIterations = 1000;

struct Inputs {
  std::vector<ir::Loop> hot;            ///< the hot set
  std::vector<std::string> cold_text;   ///< never-seen loops, as text
};

Inputs make_inputs(std::uint64_t seed, std::size_t cold_count, bool small) {
  Inputs in;
  std::vector<ir::Loop> candidates;
  for (const workloads::BenchmarkSpec& spec : workloads::spec_fp2000_suite()) {
    for (ir::Loop& l : workloads::generate_benchmark(spec)) {
      if (l.num_instrs() <= kHotMaxInstrs) candidates.push_back(std::move(l));
    }
  }
  // A fixed, evenly spaced pick across the suite order (and so across
  // benchmarks); the seed only renumbers instructions.
  const int hot = small ? 16 : kHotSet;
  for (int i = 0; i < hot; ++i) {
    const std::size_t at = candidates.size() * static_cast<std::size_t>(i) / static_cast<std::size_t>(hot);
    in.hot.push_back(relabel(candidates[at], seed == 0 ? 0 : mix_seed(seed, at)));
  }
  // Cold loops cycle through every size from 12 to 40, so any window of
  // 29 cold requests carries the same sizes. Their structure is drawn once,
  // the same for every seed; the seed renumbers them like the hot set.
  support::Rng rng(mix_seed(0, 0xc01d));
  for (std::size_t k = 0; k < cold_count; ++k) {
    workloads::LoopShape shape;
    shape.name = "cold" + std::to_string(k);
    shape.target_instrs = 12 + static_cast<int>(k % 29);
    shape.rec_circuit_delay = rng.uniform() < 0.3 ? rng.uniform_int(4, 10) : 0;
    shape.rec_circuit_len = std::min(4, shape.target_instrs / 3);
    shape.accumulators = rng.uniform_int(1, 3);
    shape.feeders = rng.uniform_int(1, 2);
    shape.mem_deps = rng.uniform_int(0, 2);
    shape.mem_prob_lo = 0.005;
    shape.mem_prob_hi = 0.03;
    shape.fp_fraction = 0.6;
    shape.seed = rng.next_u64();
    const ir::Loop loop = workloads::build_loop(shape);
    in.cold_text.push_back(ir::serialise_loop(relabel(loop, seed == 0 ? 0 : mix_seed(seed, k))));
  }
  return in;
}

serve::Request make_request(ir::Loop loop) {
  serve::Request req;
  req.scheduler = "tms";
  req.ncore = 4;
  req.loop = std::move(loop);
  return req;
}

/// What one client saw for one request. Compact, so the samples do not
/// weigh on peak RSS: the full response is kept only when it is needed
/// for the output check (cold requests and errors).
struct Sample {
  double latency_us = 0.0;
  double done_s = 0.0;  ///< completion time, from the start of the phase
  std::uint64_t id = 0;
  bool cold = false;
  bool ok = false;
  bool cache_hit = false;
  bool same_as_warm = false;  ///< hot: the warm-up's schedule came back
  int hot_index = -1;         ///< index into the hot set, or -1
  int cold_index = -1;        ///< index into the cold pool, or -1
  std::int64_t t_queue_us = 0;
  std::int64_t t_schedule_us = 0;
  std::int64_t t_validate_us = 0;
  std::int64_t t_total_us = 0;
  std::unique_ptr<serve::Response> full;
};

/// One client's request stream: every kColdEvery-th request cold, the two
/// clients half a period apart; hot loops from the client's own generator;
/// cold loops from its own stripe of the pool starting at `first_cold` (a
/// stream that starts where another stopped replays the same requests with
/// cold loops nobody has sent yet).
class Stream {
 public:
  Stream(const Inputs& in, std::uint64_t seed, int client, std::size_t first_cold)
      : in_(in), rng_(mix_seed(seed, 0x5e7e0 + static_cast<std::uint64_t>(client))),
        sent_(client * kColdEvery / kClients), next_cold_(first_cold) {
    for (const ir::Loop& l : in.hot) hot_.push_back(make_request(l));
  }

  std::size_t next_cold() const { return next_cold_; }

  /// Next request, or nullptr when the client's stripe of cold loops is
  /// used up. The cold request is parsed from text before the clock starts.
  serve::Request* next(Sample& s) {
    if (++sent_ % kColdEvery == 0) {
      if (next_cold_ >= in_.cold_text.size()) return nullptr;
      auto parsed = ir::parse_loop_string(in_.cold_text[next_cold_]);
      if (!std::holds_alternative<ir::Loop>(parsed)) throw std::runtime_error("cold loop text");
      cold_ = make_request(std::move(std::get<ir::Loop>(parsed)));
      s.cold = true;
      s.cold_index = static_cast<int>(next_cold_);
      next_cold_ += kClients;
      return &cold_;
    }
    s.hot_index = static_cast<int>(rng_.bounded(hot_.size()));
    return &hot_[static_cast<std::size_t>(s.hot_index)];
  }

 private:
  const Inputs& in_;
  support::Rng rng_;
  int sent_;
  std::size_t next_cold_;
  std::vector<serve::Request> hot_;
  serve::Request cold_;
};

/// Span id of a client's request: unique across clients.
std::int64_t span_id(int client, std::uint64_t request) {
  return static_cast<std::int64_t>(client) * 1000000 + static_cast<std::int64_t>(request);
}

/// Runs every client until `seconds` pass or each has sent `max_requests`
/// (0 = no limit). Returns per-client samples; transport errors are fatal.
/// A hot response is compared with its warm-up response (`warm`) as it
/// arrives and keeps only the verdict, so memory stays flat.
std::vector<std::vector<Sample>> run_clients(const std::string& socket, std::vector<Stream>& streams,
                                             const std::vector<serve::Response>& warm,
                                             double seconds, int max_requests,
                                             std::vector<Tracer>* tracers) {
  std::vector<std::vector<Sample>> samples(streams.size());
  std::vector<std::string> errors(streams.size());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  auto client_loop = [&](std::size_t c) {
    serve::Client client;
    if (auto err = client.connect_unix(socket)) {
      errors[c] = "connect: " + *err;
      return;
    }
    Tracer* tr = tracers != nullptr ? &(*tracers)[c] : nullptr;
    std::uint64_t id = 0;
    while ((max_requests == 0 || static_cast<int>(samples[c].size()) < max_requests) &&
           (max_requests > 0 || Clock::now() < end)) {
      Sample s;
      serve::Request* req = streams[c].next(s);
      if (req == nullptr) break;
      req->id = ++id;
      std::variant<serve::Response, std::string> out;
      const Clock::time_point t = Clock::now();
      {
        Tracer::Scope span(tr, "serve.Client::compile", span_id(static_cast<int>(c), id));
        out = client.compile(*req);
      }
      s.latency_us = ms_since(t) * 1000.0;
      s.done_s = ms_since(start) / 1000.0;
      if (auto* err = std::get_if<std::string>(&out)) {
        errors[c] = "request " + std::to_string(id) + ": " + *err;
        return;
      }
      serve::Response& resp = std::get<serve::Response>(out);
      s.id = resp.id;
      s.ok = resp.ok;
      s.cache_hit = resp.cache_hit;
      s.t_queue_us = resp.t_queue_us;
      s.t_schedule_us = resp.t_schedule_us;
      s.t_validate_us = resp.t_validate_us;
      s.t_total_us = resp.t_total_us;
      if (!s.cold) {
        const serve::Response& w = warm[static_cast<std::size_t>(s.hot_index)];
        s.same_as_warm = resp.ii == w.ii && resp.slots == w.slots;
      }
      if (s.cold || !s.ok) s.full = std::make_unique<serve::Response>(std::move(resp));
      samples[c].push_back(std::move(s));
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        client_loop(c);
      } catch (const std::exception& ex) {
        errors[c] = ex.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("serve_mix client: " + e);
  }
  return samples;
}

/// A reconstructed schedule from response slots (validated by the caller).
sched::Schedule rebuild(const ir::Loop& loop, const machine::MachineModel& mach,
                        const serve::Response& resp) {
  sched::Schedule s(loop, mach, resp.ii);
  for (int v = 0; v < loop.num_instrs(); ++v) s.set_slot(v, resp.slots[static_cast<std::size_t>(v)]);
  return s;
}

bool validate_response(const ir::Loop& loop, const machine::MachineModel& mach,
                       const machine::SpmtConfig& cfg, const serve::Response& resp) {
  if (!resp.ok || static_cast<int>(resp.slots.size()) != loop.num_instrs()) return false;
  check::CheckOptions co;
  co.c_delay_threshold = resp.c_delay_threshold;
  co.p_max = resp.p_max;
  return check::validate_schedule(rebuild(loop, mach, resp), cfg, co).ok();
}

/// The cluster plus its warmed hot-set schedules.
struct Served {
  std::unique_ptr<router::LocalCluster> cluster;
  std::string dir;
  std::vector<serve::Response> hot;  ///< warm-up response per hot loop
};

void stop(Served& s) {
  if (s.cluster != nullptr) s.cluster->stop();
  s.cluster.reset();
  std::error_code ec;
  if (!s.dir.empty()) std::filesystem::remove_all(s.dir, ec);
}

/// Set-up: start the cluster and compile the hot set once through the router.
void start(Served& s, const machine::MachineModel& mach, const Inputs& in, const std::string& dir) {
  s.dir = dir;
  std::filesystem::create_directories(dir);
  router::LocalClusterOptions co;
  co.backends = 2;
  co.threads_per_backend = 1;
  co.cache_capacity = 1 << 16;
  co.peer_fill = true;
  co.validate = true;
  co.dir = dir;
  s.cluster = std::make_unique<router::LocalCluster>(mach, co);
  if (auto err = s.cluster->start()) throw std::runtime_error("cluster start: " + *err);
  serve::Client client;
  if (auto err = client.connect_unix(s.cluster->router_socket())) {
    throw std::runtime_error("connect: " + *err);
  }
  s.hot.clear();
  for (std::size_t i = 0; i < in.hot.size(); ++i) {
    serve::Request req = make_request(in.hot[i]);
    req.id = i + 1;
    auto out = client.compile(req);
    if (auto* err = std::get_if<std::string>(&out)) throw std::runtime_error("warm-up: " + *err);
    s.hot.push_back(std::move(std::get<serve::Response>(out)));
  }
}

/// Output checks, off the latency path: every response ok; hot responses
/// carry the warmed (validated) schedule, cold ones pass the validator.
void check_samples(const std::vector<std::vector<Sample>>& samples, const Inputs& in,
                   const machine::MachineModel& mach,
                   const machine::SpmtConfig& cfg, Report& r) {
  for (const std::vector<Sample>& client : samples) {
    for (const Sample& s : client) {
      r.attempted += 1;
      if (!s.ok) {
        r.fail("request " + std::to_string(s.id) + ": " + s.full->message);
        continue;
      }
      if (!s.cold) {
        if (!s.same_as_warm || !s.cache_hit) {
          r.fail("hot request " + std::to_string(s.id) + " did not get the cached schedule");
        }
        continue;
      }
      auto parsed = ir::parse_loop_string(in.cold_text[static_cast<std::size_t>(s.cold_index)]);
      if (!validate_response(std::get<ir::Loop>(parsed), mach, cfg, *s.full)) {
        r.fail("cold request " + std::to_string(s.id) + " failed validation");
      }
    }
  }
}

enum class Which { kAll, kHits, kMisses };

/// One value per sample, from the samples `which` selects.
std::vector<double> field(const std::vector<std::vector<Sample>>& samples,
                          double (*get)(const Sample&), Which which = Which::kAll) {
  std::vector<double> out;
  for (const auto& client : samples) {
    for (const Sample& s : client) {
      if ((which == Which::kHits && !s.cache_hit) || (which == Which::kMisses && s.cache_hit)) {
        continue;
      }
      out.push_back(get(s));
    }
  }
  return out;
}

/// Requests completed per second in each tenth of a phase of `phase_s`
/// seconds, by completion time; their median is the throughput, so a
/// burst of host interference in one tenth does not move it.
double median_window_rate(const std::vector<std::vector<Sample>>& samples, double phase_s) {
  constexpr int kWindows = 10;
  std::vector<double> rate(kWindows, 0.0);
  for (const auto& client : samples) {
    for (const Sample& s : client) {
      const int w = std::min(kWindows - 1, static_cast<int>(s.done_s / phase_s * kWindows));
      rate[static_cast<std::size_t>(w)] += kWindows / phase_s;
    }
  }
  return median(rate);
}

/// Requests each shard has answered so far.
std::vector<std::uint64_t> forwarded(router::LocalCluster& cluster) {
  std::vector<std::uint64_t> n;
  for (const auto& b : cluster.router().backends_snapshot()) n.push_back(b.forwarded);
  return n;
}

/// The larger shard's share of the requests answered between two counts.
double shard_share_max(const std::vector<std::uint64_t>& before,
                       const std::vector<std::uint64_t>& after) {
  double most = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < after.size(); ++i) {
    const auto n = static_cast<double>(after[i] - before[i]);
    most = std::max(most, n);
    total += n;
  }
  return total > 0.0 ? most / total : 0.0;
}

}  // namespace

Report run_serve_mix(const Options& opts) {
  Report r;
  const machine::MachineModel mach;
  const machine::SpmtConfig cfg;  // requests carry ncore 4 and the default policy
  // Cold pool: enough for the timed phase at a rate well above any seen
  // (one in kColdEvery of ~8k requests/s); a client that exhausts its
  // stripe stops.
  const auto cold_count = static_cast<std::size_t>(
      opts.trace ? 2 * kClients * (kTracedRequests / kColdEvery + 1)
                 : opts.seconds * 8000.0 / kColdEvery + 64);
  const Inputs in = make_inputs(opts.seed, opts.small ? 64 : cold_count, opts.small);
  // The router's hash ring is built from the shards' socket paths, so they
  // are one fixed relative path inside the work directory, the process's
  // working directory: every run, wherever its build tree lives, maps the
  // same keys to the same shard.
  const std::string dir = "serve";

  // Only start() is timed: the previous repetition's cluster is stopped
  // first, off the clock, since draining it waits on the servers' poll tick.
  Served served;
  const double setup_s = median_setup_s(
      opts.small || opts.trace ? 1 : kSetupReps, [&] { stop(served); },
      [&] { start(served, mach, in, dir); });
  for (const serve::Response& h : served.hot) {
    if (!h.ok) r.fail("warm-up: " + h.message);
  }
  if (r.failed > 0) {
    stop(served);
    r.attempted = r.failed;
    return r;
  }

  // Served code quality of the hot set: F from the cost model and the
  // simulated cycles per iteration (quick_estimate also checks semantics).
  std::vector<double> f;
  std::vector<double> cpi;
  for (std::size_t i = 0; i < in.hot.size(); ++i) {
    r.attempted += 1;
    if (!validate_response(in.hot[i], mach, cfg, served.hot[i])) {
      r.fail("hot loop " + in.hot[i].name() + " failed validation");
      continue;
    }
    const sched::Schedule s = rebuild(in.hot[i], mach, served.hot[i]);
    f.push_back(cost::per_iter_nomiss(s.ii(), sched::measure(s, cfg).c_delay, cfg));
    const codegen::KernelProgram kp = codegen::lower_kernel(s, cfg);
    spmt::QuickEstimateOptions qo;
    qo.iterations = kHotSimIterations;
    const spmt::QuickEstimate q = spmt::quick_estimate(in.hot[i], kp, cfg, qo);
    if (!q.semantics_ok) r.fail("hot loop " + in.hot[i].name() + " diverged in simulation");
    cpi.push_back(q.cycles_per_iteration);
  }

  std::vector<Stream> streams;
  for (int c = 0; c < kClients; ++c) streams.emplace_back(in, opts.seed, c, c);
  const int traced_n = opts.small ? 150 : kTracedRequests;

  const obs::CountersSnapshot before = obs::counters_snapshot();
  const std::vector<std::uint64_t> forwarded_before = forwarded(*served.cluster);
  const Clock::time_point t = Clock::now();
  std::vector<std::vector<Sample>> samples = run_clients(
      served.cluster->router_socket(), streams, served.hot, opts.seconds, opts.trace ? traced_n : 0,
      nullptr);
  const double phase_s = ms_since(t) / 1000.0;
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  const double share_max = shard_share_max(forwarded_before, forwarded(*served.cluster));
  check_samples(samples, in, mach, cfg, r);

  auto latency = [](const Sample& s) { return s.latency_us; };
  const std::vector<double> lat = field(samples, +latency);
  double cold = 0.0;
  for (const auto& client : samples) {
    for (const Sample& s : client) cold += s.cold ? 1.0 : 0.0;
  }
  const double rps = median_window_rate(samples, phase_s);
  const double p50 = median(lat);
  const double p99 = quantile(lat, 0.99);

  r.det("setup_s", setup_s, "s");
  r.det("requests_per_s", rps, "req/s");
  r.det("request_us_p50", p50, "us");
  r.det(tail_supported(lat.size(), 0.99) ? "request_us_p99" : "request_us_p99_unsupported", p99,
        "us");
  r.det("f_geomean", geomean(f), "cycles/iter");
  r.det("sim_cycles_per_iter", geomean(cpi), "cycles/iter");
  r.det("requests", static_cast<double>(lat.size()), "requests");
  r.det("cold_requests", cold, "requests");
  r.det("serve.peer_fill_misses", static_cast<double>(d.value("serve.peer_fill_misses")),
        "requests");
  r.det("router.retries", static_cast<double>(d.value("router.retries")), "requests");
  r.det("router.hedges", static_cast<double>(d.value("router.hedges")), "requests");
  r.det("router.shard_share_max", share_max, "ratio");

  r.count("f_geomean", geomean(f), "cycles/iter");
  r.count("sim_cycles_per_iter", geomean(cpi), "cycles/iter");
  std::uint64_t hot_ii = 0;
  for (const serve::Response& h : served.hot) hot_ii += static_cast<std::uint64_t>(h.ii);
  r.count("hot_total_ii", static_cast<double>(hot_ii), "cycles");
  std::uint64_t cold_digest = digest("");
  for (const std::string& text : in.cold_text) cold_digest = digest(text, cold_digest);
  r.count("input_digest", static_cast<double>(cold_digest % 1000000007ULL), "hash");

  if (!opts.trace) {
    stop(served);
    r.e2e("setup_s", setup_s, "s");
    r.e2e("work_per_s", rps, "1/s");
    r.e2e("latency_p50_ms", p50 / 1000.0, "ms");
    r.e2e("latency_tail_ms", p99 / 1000.0, "ms");
    r.e2e("f_geomean", geomean(f), "cycles/iter");
    r.e2e("sim_cycles_per_iter", geomean(cpi), "cycles/iter");
    return r;
  }

  // ---- traced run -----------------------------------------------------------
  std::vector<Tracer> tracers;
  for (int c = 0; c < kClients; ++c) tracers.emplace_back(c + 1);
  const std::vector<std::uint64_t> traced_forwarded_before = forwarded(*served.cluster);
  // The traced phase replays the untraced phase's hot/cold pattern with
  // cold loops neither phase has sent, so the two compare like for like.
  std::vector<Stream> traced_streams;
  for (int c = 0; c < kClients; ++c) {
    traced_streams.emplace_back(in, opts.seed, c, streams[static_cast<std::size_t>(c)].next_cold());
  }
  const obs::CountersSnapshot tb = obs::counters_snapshot();
  const Clock::time_point tt = Clock::now();
  std::vector<std::vector<Sample>> traced = run_clients(
      served.cluster->router_socket(), traced_streams, served.hot, opts.seconds, traced_n, &tracers);
  const double traced_s = ms_since(tt) / 1000.0;
  const obs::CountersSnapshot td = obs::snapshot_delta(tb, obs::counters_snapshot());
  const double traced_share_max = shard_share_max(traced_forwarded_before, forwarded(*served.cluster));
  stop(served);
  check_samples(traced, in, mach, cfg, r);

  // Text-path functions on each traced request's own payload.
  Tracer probe(kClients + 1);
  {
    for (int c = 0; c < kClients; ++c) {
      Stream replay(in, opts.seed, c, streams[static_cast<std::size_t>(c)].next_cold());
      for (std::size_t k = 0; k < traced[static_cast<std::size_t>(c)].size(); ++k) {
        Sample s;
        serve::Request* req = replay.next(s);
        req->id = k + 1;
        const std::int64_t id = span_id(c, req->id);
        std::string payload;
        {
          Tracer::Scope span(&probe, "serve.serialise_request", id);
          payload = serve::serialise_request(*req);
        }
        {
          Tracer::Scope span(&probe, "serve.parse_request", id);
          if (!std::holds_alternative<serve::Request>(serve::parse_request(payload))) {
            r.fail("parse_request rejected a request payload");
          }
        }
        const std::string text = ir::serialise_loop(req->loop);
        {
          Tracer::Scope span(&probe, "ir.parse_loop_string", id);
          (void)ir::parse_loop_string(text);
        }
        {
          Tracer::Scope span(&probe, "driver.ScheduleCache::key", id);
          (void)driver::ScheduleCache::key(req->loop, mach, cfg, req->scheduler);
        }
      }
    }
  }

  auto us = [](const std::vector<double>& ms) {
    std::vector<double> out;
    for (const double v : ms) out.push_back(v * 1000.0);
    return out;
  };
  auto sched_us = [](const Sample& s) { return static_cast<double>(s.t_schedule_us); };
  auto validate_us = [](const Sample& s) { return static_cast<double>(s.t_validate_us); };
  auto queue_us = [](const Sample& s) { return static_cast<double>(s.t_queue_us); };
  auto total_us = [](const Sample& s) { return static_cast<double>(s.t_total_us); };
  auto transport_us = [](const Sample& s) {
    return s.latency_us - static_cast<double>(s.t_total_us);
  };
  auto hit = [](const Sample& s) { return s.cache_hit ? 1.0 : 0.0; };
  const std::vector<double> traced_lat = field(traced, +latency);
  auto sum_us = [&](const char* name) { return static_cast<double>(td.time_histogram_sum_us(name)); };
  auto count_of = [&](const char* name) {
    return std::max(1.0, static_cast<double>(td.time_histogram_count(name)));
  };

  r.layer("serve.serialise_us_p50", median(us(probe.durations_ms("serve.serialise_request"))), "us");
  r.layer("serve.parse_us_p50", median(us(probe.durations_ms("serve.parse_request"))), "us");
  r.layer("ir.parse_us_p50", median(us(probe.durations_ms("ir.parse_loop_string"))), "us");
  r.layer("driver.cache_key_us_p50", median(us(probe.durations_ms("driver.ScheduleCache::key"))), "us");
  r.layer("driver.cache_hit_ratio", mean(field(traced, +hit)), "ratio");
  r.layer("serve.hit_schedule_us_p50", median(field(traced, +sched_us, Which::kHits)), "us");
  r.layer("serve.miss_schedule_us_p50", median(field(traced, +sched_us, Which::kMisses)), "us");
  r.layer("check.validate_us_p50", median(field(traced, +validate_us)), "us");
  r.layer("serve.queue_us_p50", median(field(traced, +queue_us)), "us");
  r.layer("serve.queue_us_p99", quantile(field(traced, +queue_us), 0.99), "us");
  r.layer("serve.handle_us_p50", median(field(traced, +total_us)), "us");
  r.layer("serve.handle_us_p99", quantile(field(traced, +total_us), 0.99), "us");
  r.layer("serve.transport_us_p50", median(field(traced, +transport_us)), "us");
  r.layer("router.self_us_mean",
          (sum_us("router.latency.total") - sum_us("router.latency.backend")) /
              count_of("router.latency.total"),
          "us");
  r.layer("router.backend_rtt_us_mean",
          (sum_us("router.latency.backend") - sum_us("serve.latency.total")) /
              count_of("router.latency.backend"),
          "us");
  r.layer("serve.peer_fill_misses", static_cast<double>(td.value("serve.peer_fill_misses")), "requests");
  r.layer("router.retries", static_cast<double>(td.value("router.retries")), "requests");
  r.layer("router.hedges", static_cast<double>(td.value("router.hedges")), "requests");
  r.layer("router.shard_share_max", traced_share_max, "ratio");
  r.layer("bench.trace_overhead_pct",
          (static_cast<double>(lat.size()) / phase_s /
               (static_cast<double>(traced_lat.size()) / traced_s) - 1.0) * 100.0,
          "%");

  r.count("driver.cache_hit_ratio", mean(field(traced, +hit)), "ratio");
  r.count("serve.peer_fill_misses", static_cast<double>(td.value("serve.peer_fill_misses")), "requests");
  r.count("router.retries", static_cast<double>(td.value("router.retries")), "requests");
  r.count("router.hedges", static_cast<double>(td.value("router.hedges")), "requests");
  r.count("router.shard_share_max", traced_share_max, "ratio");

  Tracer all;
  for (const Tracer& client : tracers) all.merge(client);
  all.merge(probe);
  write_trace(opts, all, r);
  return r;
}

}  // namespace tmsperf
