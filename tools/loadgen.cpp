// loadgen — concurrency/QPS load generator for tmsd.
//
// Hammers a running tmsd with N client threads issuing a fixed request
// budget drawn round-robin from a workload (built-in kernel suite by
// default, or .loop files), retrying overload answers with the server's
// own retry_after_ms hint, and reporting latency percentiles.
//
// Every request carries a request id ("lg-<k>"); the server must echo
// it byte-for-byte on the matching response (ok or error), and any
// disagreement counts as an id mismatch and fails the run. Responses
// also carry the server's per-stage timings (queue wait, schedule,
// validate, total), so the report splits client-observed latency into
// network overhead vs server time, with server-side stage percentiles
// printed next to the client percentiles.
//
// With --verify, every response is checked against a locally computed
// schedule for the same (loop, scheduler, ncore): the schedulers are
// deterministic, so remote and local must agree exactly (II and every
// slot). This is the acceptance check behind tests/serve_smoke.sh.
//
// Usage:
//   loadgen --socket PATH [loop files...] [options]
//     --tcp HOST:PORT          connect over TCP instead of --socket
//     --clients N              concurrent client connections (default 8)
//     --requests N             total requests across all clients
//                                                           (default 200)
//     --qps N                  aggregate request rate cap (0 = unlimited)
//     --scheduler sms|ims|tms  (default tms)
//     --ncore N (default 4), --policy P, --policy-stride N,
//     --policy-block N, --bus-bytes N,
//     --bus-bandwidth N        machine flags carried in every request,
//                              shared with tmsc, tmsbatch and tmsd
//                              (policy::parse_machine_flag, docs/POLICY.md)
//     --deadline-ms N          per-request deadline (0 = none)
//     --timeout-ms N           socket send/recv timeout (default 30000)
//     --max-retries N          overload retries per request (default 8)
//     --verify                 compare responses against local schedules
//     --expect-retry-after     require >=1 overload answer; with this
//                              flag, requests that exhaust their retries
//                              count as deferred, not failed
//     --expect-stats           issue STATS round trips mid-run and after
//                              the run; require they parse as canonical
//                              tmsd-stats-v1 JSON and that the final
//                              snapshot shows populated, internally
//                              consistent serve.latency.* histograms
//     --cluster N              instead of --socket/--tcp: bring up an
//                              in-process N-backend cluster (router::
//                              LocalCluster — N compile services behind
//                              a consistent-hash tmsrouter core) and
//                              drive its router socket; the report gains
//                              per-shard forwarding balance. With
//                              --expect-stats the probe goes to backend 0
//                              directly (the router's STATS schema is
//                              tmsrouter-stats-v1, not tmsd-stats-v1)
//     --json PATH              also write the report as one canonical
//                              JSON object (schema loadgen-report-v1);
//                              its `topology` field says "single" or
//                              "cluster:N"
//     --trace-out FILE         arm the in-process tracer for the run and
//                              write the Chrome trace-event JSON to FILE
//                              afterwards. Every request is sent with a
//                              minted trace id. Under --cluster the
//                              router core and all N backends live in
//                              this process, so the file is the stitched
//                              cluster trace: router.request spans with
//                              their router.forward legs parenting each
//                              backend's serve.* spans
//                              (docs/OBSERVABILITY.md)
//
// Exit status: 0 when every request succeeded (and the --expect flags
// held), 1 otherwise, 2 on usage errors.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "driver/compile.hpp"
#include "ir/textio.hpp"
#include "machine/machine.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "router/cluster.hpp"
#include "serve/client.hpp"
#include "support/json.hpp"
#include "support/json_parse.hpp"
#include "support/parse.hpp"
#include "workloads/kernels.hpp"

using namespace tms;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket PATH | --tcp HOST:PORT | --cluster N) [loop files...]\n"
               "          [--clients N] [--requests N] [--qps N] [--scheduler sms|ims|tms]\n%s"
               "          [--deadline-ms N] [--timeout-ms N] [--max-retries N]\n"
               "          [--verify] [--expect-retry-after] [--expect-stats] [--json PATH]\n"
               "          [--trace-out FILE]\n",
               argv0, policy::kMachineFlagsUsage);
  return 2;
}

struct Expected {
  int ii = 0;
  std::vector<int> slots;
};

struct Totals {
  std::uint64_t ok = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t overloads = 0;      ///< overload answers observed (pre-retry)
  std::uint64_t retries = 0;
  std::uint64_t deferred = 0;       ///< requests that exhausted their retries
  std::uint64_t failed = 0;         ///< transport errors + server errors
  std::uint64_t mismatches = 0;     ///< --verify disagreements
  std::uint64_t id_mismatches = 0;  ///< responses that did not echo our request_id
  std::vector<double> latencies_ms;
  // Server-reported stage timings (one entry per ok response, from the
  // final attempt), and the client-minus-server remainder: what the
  // network, framing, and client-side queueing cost on top.
  std::vector<double> queue_us;
  std::vector<double> schedule_us;
  std::vector<double> validate_us;
  std::vector<double> total_us;
  std::vector<double> overhead_ms;
};

double percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double idx = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(idx);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

/// Sorts in place and prints "  <label>: p50 .. p90 .. p99 .. max ..".
void print_quantiles(const char* label, std::vector<double>& v) {
  if (v.empty()) return;
  std::sort(v.begin(), v.end());
  std::printf("  %s: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n", label, percentile(v, 0.50),
              percentile(v, 0.90), percentile(v, 0.99), v.back());
}

/// Emits {"p50":..,"p90":..,"p99":..,"max":..} under `key`. Empty series
/// render as all-zero rather than being omitted, so the report shape is
/// stable for consumers.
void json_quantiles(support::JsonWriter& w, std::string_view key, std::vector<double>& sorted) {
  w.key(key).begin_object();
  w.member("p50", percentile(sorted, 0.50));
  w.member("p90", percentile(sorted, 0.90));
  w.member("p99", percentile(sorted, 0.99));
  w.member("max", sorted.empty() ? 0.0 : sorted.back());
  w.end_object();
}

/// One STATS round trip on a fresh connection. `require_traffic` adds
/// the end-of-run assertions: serve.requests counted, all four
/// serve.latency.* histograms populated with equal counts, and stage
/// sums consistent (queue + schedule + validate <= total). Returns a
/// failure description or nullopt.
std::optional<std::string> check_stats(const std::string& socket_path, const std::string& tcp_host,
                                       int tcp_port, int timeout_ms, bool require_traffic) {
  serve::Client client;
  const std::optional<std::string> cerr =
      socket_path.empty() ? client.connect_tcp(tcp_host, tcp_port, timeout_ms)
                          : client.connect_unix(socket_path, timeout_ms);
  if (cerr.has_value()) return "connect: " + *cerr;
  std::string payload;
  if (const auto err = client.stats(payload)) return "stats: " + *err;
  auto parsed = support::parse_json(payload);
  if (const auto* err = std::get_if<std::string>(&parsed)) {
    return "stats payload is not valid JSON: " + *err;
  }
  const auto& root = std::get<support::JsonValue>(parsed);
  const auto* schema = root.find("schema");
  if (schema == nullptr || !schema->is_string() || schema->as_string() != "tmsd-stats-v1") {
    return std::string("stats payload lacks schema tmsd-stats-v1");
  }
  const auto* obs = root.find("observability");
  if (obs == nullptr || !obs->is_object()) return std::string("stats payload lacks observability");
  if (!require_traffic) return std::nullopt;

  const auto* counters = obs->find("counters");
  const auto* served = counters != nullptr ? counters->find("serve.requests") : nullptr;
  if (served == nullptr || !served->is_number() || served->as_number() <= 0) {
    return std::string("stats: serve.requests is not positive after the run");
  }
  const auto* th = obs->find("time_histograms");
  if (th == nullptr || !th->is_object()) return std::string("stats lacks time_histograms");
  const char* stages[] = {"serve.latency.queue_wait", "serve.latency.schedule",
                          "serve.latency.validate", "serve.latency.total"};
  double counts[4] = {0, 0, 0, 0};
  double sums[4] = {0, 0, 0, 0};
  for (int s = 0; s < 4; ++s) {
    const auto* hist = th->find(stages[s]);
    const auto* count = hist != nullptr ? hist->find("count") : nullptr;
    const auto* sum = hist != nullptr ? hist->find("sum_us") : nullptr;
    if (count == nullptr || !count->is_number() || sum == nullptr || !sum->is_number()) {
      return std::string("stats: missing histogram ") + stages[s];
    }
    counts[s] = count->as_number();
    sums[s] = sum->as_number();
  }
  if (counts[3] <= 0) return std::string("stats: serve.latency.total is empty after the run");
  if (counts[0] != counts[3] || counts[1] != counts[3] || counts[2] != counts[3]) {
    return std::string("stats: serve.latency.* histogram counts disagree");
  }
  if (sums[0] + sums[1] + sums[2] > sums[3]) {
    return std::string("stats: queue_wait + schedule + validate exceeds total");
  }
  return std::nullopt;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string tcp;
  std::vector<std::string> files;
  int clients = 8;
  long long requests = 200;
  long long qps = 0;
  std::string scheduler = "tms";
  machine::SpmtConfig cfg;
  long long deadline_ms = 0;
  int timeout_ms = 30000;
  int max_retries = 8;
  bool verify = false;
  bool expect_retry_after = false;
  bool expect_stats = false;
  int cluster = 0;
  std::string json_path;
  std::string trace_out;

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
    if (a == "--socket") {
      socket_path = next("--socket");
    } else if (a == "--tcp") {
      tcp = next("--tcp");
    } else if (a == "--clients") {
      int_arg("--clients", clients);
    } else if (a == "--requests") {
      int_arg("--requests", requests);
    } else if (a == "--qps") {
      int_arg("--qps", qps);
    } else if (a == "--scheduler") {
      scheduler = next("--scheduler");
    } else if (policy::is_machine_flag(a)) {
      if (const auto err = policy::parse_machine_flag(a, next(a.c_str()), cfg)) {
        std::fprintf(stderr, "%s\n", err->c_str());
        return 2;
      }
    } else if (a == "--deadline-ms") {
      int_arg("--deadline-ms", deadline_ms);
    } else if (a == "--timeout-ms") {
      int_arg("--timeout-ms", timeout_ms);
    } else if (a == "--max-retries") {
      int_arg("--max-retries", max_retries);
    } else if (a == "--verify") {
      verify = true;
    } else if (a == "--expect-retry-after") {
      expect_retry_after = true;
    } else if (a == "--expect-stats") {
      expect_stats = true;
    } else if (a == "--cluster") {
      int_arg("--cluster", cluster);
      if (cluster < 1) {
        std::fprintf(stderr, "--cluster requires a positive backend count\n");
        return 2;
      }
    } else if (a == "--json") {
      json_path = next("--json");
    } else if (a == "--trace-out") {
      trace_out = next("--trace-out");
    } else if (!a.empty() && a[0] == '-') {
      return usage(argv[0]);
    } else {
      files.push_back(a);
    }
  }
  if (cluster > 0 ? !(socket_path.empty() && tcp.empty())
                  : socket_path.empty() == tcp.empty()) {
    std::fprintf(stderr, "exactly one of --socket / --tcp / --cluster is required\n");
    return usage(argv[0]);
  }
  std::string tcp_host;
  int tcp_port = 0;
  if (!tcp.empty() && !support::parse_host_port(tcp, tcp_host, tcp_port)) {
    std::fprintf(stderr, "--tcp expects HOST:PORT\n");
    return 2;
  }
  if (clients < 1 || requests < 1) {
    std::fprintf(stderr, "--clients and --requests must be positive\n");
    return 2;
  }
  if (!driver::known_scheduler(scheduler)) {
    std::fprintf(stderr, "unknown scheduler '%s'\n", scheduler.c_str());
    return 2;
  }

  std::vector<ir::Loop> loops;
  for (const std::string& f : files) {
    std::ifstream file(f);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", f.c_str());
      return 1;
    }
    auto parsed = ir::parse_loop(file);
    if (const auto* err = std::get_if<ir::ParseError>(&parsed)) {
      std::fprintf(stderr, "%s:%d: %s\n", f.c_str(), err->line, err->message.c_str());
      return 1;
    }
    loops.push_back(std::get<ir::Loop>(std::move(parsed)));
  }
  if (loops.empty()) {
    for (workloads::Kernel& k : workloads::classic_kernels()) {
      loops.push_back(std::move(k.loop));
    }
  }

  // --verify baseline: schedule every loop locally, once, up front. The
  // schedulers are deterministic, so this is what the server must echo.
  machine::MachineModel mach;
  std::vector<std::optional<Expected>> expected(loops.size());
  if (verify) {
    for (std::size_t i = 0; i < loops.size(); ++i) {
      if (const auto c = driver::schedule_loop(loops[i], mach, cfg, scheduler)) {
        Expected e;
        e.ii = c->schedule.ii();
        for (int v = 0; v < loops[i].num_instrs(); ++v) e.slots.push_back(c->schedule.slot(v));
        expected[i] = std::move(e);
      }
    }
  }

  // --cluster: bring up the in-process N-shard topology; the worker
  // threads below then dial its router socket exactly as they would a
  // remote tmsrouter. STATS probes go to backend 0 directly — the
  // router's snapshot schema (tmsrouter-stats-v1) is not what
  // check_stats() asserts.
  // --trace-out: arm the process-wide tracer before anything can emit a
  // span. Under --cluster the router core and every backend service run
  // in this process, so one buffer captures the whole stitched path.
  if (!trace_out.empty()) obs::trace_enable();

  std::unique_ptr<router::LocalCluster> lc;
  char cluster_dir[] = "/tmp/loadgen-cluster-XXXXXX";
  if (cluster > 0) {
    if (::mkdtemp(cluster_dir) == nullptr) {
      std::fprintf(stderr, "loadgen: mkdtemp: %s\n", std::strerror(errno));
      return 1;
    }
    router::LocalClusterOptions copts;
    copts.backends = cluster;
    copts.dir = cluster_dir;
    lc = std::make_unique<router::LocalCluster>(mach, copts);
    if (const auto err = lc->start()) {
      std::fprintf(stderr, "loadgen: cluster: %s\n", err->c_str());
      return 1;
    }
    socket_path = lc->router_socket();
  }
  const std::string stats_socket = lc != nullptr ? lc->backend_socket(0) : socket_path;

  std::atomic<long long> next_request{0};
  std::mutex totals_mu;
  Totals totals;
  std::atomic<bool> connect_failed{false};
  const auto start = std::chrono::steady_clock::now();
  // Aggregate pacing: request k across the whole run is released at
  // k/qps seconds, whichever client draws it.
  const auto release_time = [&](long long k) {
    return start + std::chrono::microseconds(qps > 0 ? k * 1000000 / qps : 0);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&] {
      serve::Client client;
      const auto cerr = socket_path.empty() ? client.connect_tcp(tcp_host, tcp_port, timeout_ms)
                                            : client.connect_unix(socket_path, timeout_ms);
      if (cerr.has_value()) {
        std::fprintf(stderr, "loadgen: connect: %s\n", cerr->c_str());
        connect_failed.store(true, std::memory_order_release);
        return;
      }
      Totals local;
      for (;;) {
        const long long k = next_request.fetch_add(1, std::memory_order_relaxed);
        if (k >= requests) break;
        if (qps > 0) std::this_thread::sleep_until(release_time(k));
        const std::size_t li = static_cast<std::size_t>(k) % loops.size();
        serve::Request req;
        req.id = static_cast<std::uint64_t>(k) + 1;
        req.request_id = "lg-" + std::to_string(k + 1);
        req.scheduler = scheduler;
        serve::set_request_config(req, cfg);
        req.deadline_ms = deadline_ms;
        req.loop = loops[li];
        // Traced runs act as the trace root: the server echoes this id
        // and its spans carry it, so the dump stitches per request.
        if (!trace_out.empty()) req.trace_id = obs::mint_id();

        const auto t0 = std::chrono::steady_clock::now();
        bool settled = false;
        for (int attempt = 0; attempt <= max_retries && !settled; ++attempt) {
          auto result = client.compile(req);
          if (const auto* err = std::get_if<std::string>(&result)) {
            std::fprintf(stderr, "loadgen: request %lld: %s\n", k, err->c_str());
            ++local.failed;
            settled = true;
            break;
          }
          const serve::Response& resp = std::get<serve::Response>(result);
          // Every response — ok or error — must echo our id exactly.
          if (resp.request_id != req.request_id) {
            std::fprintf(stderr, "loadgen: request %lld: request_id '%s' echoed as '%s'\n", k,
                         req.request_id.c_str(), resp.request_id.c_str());
            ++local.id_mismatches;
          }
          if (!resp.ok && resp.code == serve::ErrorCode::kOverload) {
            ++local.overloads;
            if (attempt == max_retries) {
              ++local.deferred;
              settled = true;
            } else {
              ++local.retries;
              std::this_thread::sleep_for(
                  std::chrono::milliseconds(std::max<std::int64_t>(resp.retry_after_ms, 1)));
            }
            continue;
          }
          if (!resp.ok) {
            std::fprintf(stderr, "loadgen: request %lld: server error [%s]: %s\n", k,
                         std::string(serve::to_string(resp.code)).c_str(), resp.message.c_str());
            ++local.failed;
            settled = true;
            break;
          }
          ++local.ok;
          if (resp.cache_hit) ++local.cache_hits;
          if (verify) {
            const auto& exp = expected[li];
            if (!exp.has_value() || resp.ii != exp->ii || resp.slots != exp->slots) {
              std::fprintf(stderr, "loadgen: request %lld: schedule mismatch vs local %s\n", k,
                           scheduler.c_str());
              ++local.mismatches;
            }
          }
          const double client_ms =
              std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                  .count();
          local.latencies_ms.push_back(client_ms);
          local.queue_us.push_back(static_cast<double>(resp.t_queue_us));
          local.schedule_us.push_back(static_cast<double>(resp.t_schedule_us));
          local.validate_us.push_back(static_cast<double>(resp.t_validate_us));
          local.total_us.push_back(static_cast<double>(resp.t_total_us));
          local.overhead_ms.push_back(
              std::max(0.0, client_ms - static_cast<double>(resp.t_total_us) / 1000.0));
          settled = true;
        }
      }
      std::lock_guard<std::mutex> lock(totals_mu);
      totals.ok += local.ok;
      totals.cache_hits += local.cache_hits;
      totals.overloads += local.overloads;
      totals.retries += local.retries;
      totals.deferred += local.deferred;
      totals.failed += local.failed;
      totals.mismatches += local.mismatches;
      totals.id_mismatches += local.id_mismatches;
      totals.latencies_ms.insert(totals.latencies_ms.end(), local.latencies_ms.begin(),
                                 local.latencies_ms.end());
      totals.queue_us.insert(totals.queue_us.end(), local.queue_us.begin(), local.queue_us.end());
      totals.schedule_us.insert(totals.schedule_us.end(), local.schedule_us.begin(),
                                local.schedule_us.end());
      totals.validate_us.insert(totals.validate_us.end(), local.validate_us.begin(),
                                local.validate_us.end());
      totals.total_us.insert(totals.total_us.end(), local.total_us.begin(), local.total_us.end());
      totals.overhead_ms.insert(totals.overhead_ms.end(), local.overhead_ms.begin(),
                                local.overhead_ms.end());
    });
  }

  // The mid-run STATS probe: a separate connection, while the workers
  // are (very likely still) pushing requests. STATS is never queued, so
  // it must answer promptly even with the compile queue saturated.
  std::optional<std::string> stats_err;
  if (expect_stats) {
    stats_err =
        check_stats(stats_socket, tcp_host, tcp_port, timeout_ms, /*require_traffic=*/false);
  }
  for (std::thread& t : threads) t.join();
  if (expect_stats && !stats_err.has_value()) {
    stats_err =
        check_stats(stats_socket, tcp_host, tcp_port, timeout_ms, /*require_traffic=*/true);
  }
  const double wall_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start).count();

  // Per-shard forwarding balance, snapshotted before teardown. The
  // ratio of the busiest to the emptiest shard is the headline number
  // (1.0 = perfectly even).
  std::vector<router::Router::BackendSnapshot> shards;
  if (lc != nullptr) {
    shards = lc->router().backends_snapshot();
    lc->stop();
  }

  // Trace dump after teardown so in-flight spans have closed.
  if (!trace_out.empty()) {
    std::FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write %s: %s\n", trace_out.c_str(),
                   std::strerror(errno));
      return 1;
    }
    const std::string json = obs::trace_chrome_json();
    std::fwrite(json.data(), 1, json.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("loadgen: wrote %zu trace event(s) to %s (%zu dropped)\n",
                obs::trace_event_count(), trace_out.c_str(), obs::trace_dropped());
  }

  std::sort(totals.latencies_ms.begin(), totals.latencies_ms.end());
  std::printf("loadgen: %lld request(s), %d client(s), %.1f ms wall (%.1f req/s)\n", requests,
              clients, wall_ms,
              wall_ms > 0 ? 1000.0 * static_cast<double>(requests) / wall_ms : 0.0);
  std::printf("  ok %llu (cache hits %llu), overload answers %llu, retries %llu, "
              "deferred %llu, failed %llu, mismatches %llu, id mismatches %llu\n",
              (unsigned long long)totals.ok, (unsigned long long)totals.cache_hits,
              (unsigned long long)totals.overloads, (unsigned long long)totals.retries,
              (unsigned long long)totals.deferred, (unsigned long long)totals.failed,
              (unsigned long long)totals.mismatches, (unsigned long long)totals.id_mismatches);
  if (!totals.latencies_ms.empty()) {
    std::printf("  client latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
                percentile(totals.latencies_ms, 0.50), percentile(totals.latencies_ms, 0.90),
                percentile(totals.latencies_ms, 0.99), totals.latencies_ms.back());
  }
  // Server-side stage percentiles from the echoed timings, then the
  // client-minus-server remainder: together they answer "is tail
  // latency the network, the queue, or the compute?"
  print_quantiles("server queue_wait us", totals.queue_us);
  print_quantiles("server schedule us", totals.schedule_us);
  print_quantiles("server validate us", totals.validate_us);
  print_quantiles("server total us", totals.total_us);
  print_quantiles("network overhead ms", totals.overhead_ms);
  if (!shards.empty()) {
    std::uint64_t lo = UINT64_MAX;
    std::uint64_t hi = 0;
    for (const auto& s : shards) {
      lo = std::min(lo, s.forwarded);
      hi = std::max(hi, s.forwarded);
    }
    std::printf("  cluster: %zu backend(s), shard balance max/min %.2f\n", shards.size(),
                lo > 0 ? static_cast<double>(hi) / static_cast<double>(lo)
                       : static_cast<double>(hi));
    for (const auto& s : shards) {
      std::printf("    %s: %s, %llu forwarded, %llu transport error(s)\n", s.address.c_str(),
                  s.healthy ? "healthy" : "ejected", (unsigned long long)s.forwarded,
                  (unsigned long long)s.transport_errors);
    }
  }

  if (!json_path.empty()) {
    support::JsonWriter w;
    w.begin_object();
    w.member("schema", "loadgen-report-v1");
    w.member("topology",
             cluster > 0 ? "cluster:" + std::to_string(cluster) : std::string("single"));
    w.member("requests", static_cast<std::int64_t>(requests));
    w.member("clients", clients);
    w.member("wall_ms", wall_ms);
    w.member("req_per_s", wall_ms > 0 ? 1000.0 * static_cast<double>(requests) / wall_ms : 0.0);
    w.member("ok", totals.ok);
    w.member("cache_hits", totals.cache_hits);
    w.member("overloads", totals.overloads);
    w.member("retries", totals.retries);
    w.member("deferred", totals.deferred);
    w.member("failed", totals.failed);
    w.member("mismatches", totals.mismatches);
    w.member("id_mismatches", totals.id_mismatches);
    json_quantiles(w, "client_latency_ms", totals.latencies_ms);
    w.key("server_stage_us").begin_object();
    json_quantiles(w, "queue_wait", totals.queue_us);
    json_quantiles(w, "schedule", totals.schedule_us);
    json_quantiles(w, "validate", totals.validate_us);
    json_quantiles(w, "total", totals.total_us);
    w.end_object();
    json_quantiles(w, "network_overhead_ms", totals.overhead_ms);
    if (!shards.empty()) {
      w.key("shards").begin_array();
      for (const auto& s : shards) {
        w.begin_object();
        w.member("address", s.address);
        w.member("healthy", s.healthy);
        w.member("forwarded", s.forwarded);
        w.member("transport_errors", s.transport_errors);
        w.end_object();
      }
      w.end_array();
    }
    w.end_object();
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "loadgen: cannot write %s: %s\n", json_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    std::fprintf(f, "%s\n", w.str().c_str());
    std::fclose(f);
  }

  bool ok = !connect_failed.load(std::memory_order_acquire) && totals.failed == 0 &&
            totals.mismatches == 0 && totals.id_mismatches == 0;
  if (expect_retry_after && totals.overloads == 0) {
    std::fprintf(stderr, "loadgen: --expect-retry-after, but no overload answer was observed\n");
    ok = false;
  }
  if (!expect_retry_after && totals.deferred > 0) {
    std::fprintf(stderr, "loadgen: %llu request(s) exhausted their retries\n",
                 (unsigned long long)totals.deferred);
    ok = false;
  }
  if (expect_stats && stats_err.has_value()) {
    std::fprintf(stderr, "loadgen: --expect-stats failed: %s\n", stats_err->c_str());
    ok = false;
  }
  return ok ? 0 : 1;
}
