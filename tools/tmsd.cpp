// tmsd — persistent compile-service daemon.
//
// Serves scheduling requests over a Unix-domain socket (and optionally
// loopback TCP) so repeated compilations amortise one process-wide,
// content-addressed ScheduleCache instead of paying cold-start per
// invocation. The wire protocol, admission control, and drain semantics
// are documented in docs/SERVING.md; tmsq and loadgen are the clients.
//
// Usage:
//   tmsd --socket PATH [options]
//     --socket PATH            Unix-domain socket to listen on (required)
//     --tcp-port N             also listen on 127.0.0.1:N (0 = ephemeral;
//                              the bound port is printed on startup)
//     --threads N              compile workers          (default ncpu)
//     --queue-capacity N       admission high-water mark (default 64)
//     --retry-after-ms N       backoff hint in overload responses
//                                                       (default 100)
//     --max-connections N      live connections before turn-away
//                                                       (default 64)
//     --idle-timeout-ms N      close idle connections   (default 30000,
//                              0 = never)
//     --cache-dir DIR          persistent schedule cache on disk
//     --cache-capacity N       in-memory cache entries  (default 65536)
//     --cache-disk-max-bytes N bound the on-disk cache  (default 0 = unbounded)
//     --no-cache               disable the schedule cache entirely
//     --peer PATH              Unix socket of a ring-sibling tmsd; may be
//                              repeated. On a local cache miss the daemon
//                              PEEKs each peer in order before scheduling
//                              fresh (cache peer-fill, docs/ROUTING.md)
//     --peer-timeout-ms N      per-peer PEEK send/recv timeout (default 1000)
//     --policy P, --policy-stride N, --policy-block N, --bus-bytes N,
//     --bus-bandwidth N        machine flags, shared with tmsc, tmsbatch
//                              and loadgen (policy::parse_machine_flag,
//                              docs/POLICY.md); here they are the defaults
//                              for requests that don't carry their own
//                              (serve::request_config). --ncore is refused
//                              (exit 2): every request carries its own
//     --no-validate            skip the independent validator per request
//     --sim-verify             simulator-backed verification: refuse any
//                              response whose bounded event-driven SpMT
//                              run diverges from the sequential reference
//                              (spmt::quick_estimate, docs/SIMULATOR.md)
//     --sim-verify-iters N     iterations for the sim-verify run
//                              (default 0 = auto-sized from ncore)
//     --counters               print the counter table on exit
//     --metrics-dump PATH      write Prometheus text exposition to PATH
//                              on SIGUSR1 (and per --metrics-interval-ms);
//                              written atomically via rename
//     --metrics-interval-ms N  also dump every N ms (0 = signal-only)
//     --slow-ms N              log requests taking >= N ms as one
//                              canonical-JSON line each (0 = all; default
//                              off); counted in serve.slow_requests
//     --slow-log PATH          append slow-request lines to PATH instead
//                              of stderr
//     --flight-size N          flight-recorder ring capacity: the last N
//                              requests' full outcome records, always on
//                              (default 256; docs/SERVING.md)
//     --flight-dump PATH       write the tmsd-flight-v1 dump to PATH on
//                              SIGUSR2, on each slow request (rate
//                              limited to ~1/s), and at drain; written
//                              atomically via rename. Without a PATH,
//                              SIGUSR2 prints the dump to stderr
//
// Lifecycle: on SIGTERM or SIGINT the daemon stops accepting, answers
// already-connected clients' in-flight requests, drains the compile
// queue, and exits 0. A second signal during drain exits immediately
// (code 130). SIGUSR1 never exits — it only triggers a metrics dump;
// SIGUSR2 likewise only dumps the flight recorder. Readiness is
// signalled by the "tmsd: listening on ..." line on stdout (flushed
// before the first accept). Live introspection needs no signal at all:
// the STATS/HEALTH/FLIGHT protocol verbs answer on any connection,
// even mid-drain (see docs/SERVING.md).
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "driver/schedule_cache.hpp"
#include "machine/machine.hpp"
#include "obs/counters.hpp"
#include "obs/flight.hpp"
#include "obs/prometheus.hpp"
#include "policy/policy.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/file.hpp"
#include "support/parse.hpp"

using namespace tms;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--tcp-port N] [--threads N] [--queue-capacity N]\n"
               "          [--retry-after-ms N] [--max-connections N] [--idle-timeout-ms N]\n"
               "          [--cache-dir DIR] [--cache-capacity N] [--cache-disk-max-bytes N]\n"
               "          [--no-cache] [--peer PATH]... [--peer-timeout-ms N]\n%s"
               "          (machine flags except --ncore: each request carries its own)\n"
               "          [--no-validate] [--sim-verify] [--sim-verify-iters N] [--counters]\n"
               "          [--metrics-dump PATH] [--metrics-interval-ms N]\n"
               "          [--slow-ms N] [--slow-log PATH]\n"
               "          [--flight-size N] [--flight-dump PATH]\n",
               argv0, policy::kMachineFlagsUsage);
  return 2;
}

// Self-pipe: the handler does the only async-signal-safe thing — one
// write — and the main thread, blocked in poll() on the read end, does
// the actual drain. Volatile so a second signal can be detected.
int g_signal_pipe[2] = {-1, -1};
volatile sig_atomic_t g_signal_count = 0;
volatile sig_atomic_t g_dump_requested = 0;
volatile sig_atomic_t g_flight_requested = 0;

void on_signal(int) {
  g_signal_count = static_cast<sig_atomic_t>(g_signal_count + 1);
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void on_sigusr1(int) {
  g_dump_requested = 1;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

void on_sigusr2(int) {
  g_flight_requested = 1;
  const char byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(g_signal_pipe[1], &byte, 1);
}

/// Snapshot -> Prometheus text -> atomic replace of `path`, so a scraper
/// reading it never sees a half-written exposition. The output is linted
/// before it lands; a lint failure is a bug in the exporter, so it is
/// loud but non-fatal.
void dump_metrics(const std::string& path) {
  const std::string text = obs::write_prometheus_text(obs::counters_snapshot());
  if (const auto err = obs::lint_prometheus_text(text)) {
    std::fprintf(stderr, "tmsd: metrics exposition failed its own lint: %s\n", err->c_str());
  }
  if (const auto err = support::write_file_atomic(path, text)) {
    std::fprintf(stderr, "tmsd: %s\n", err->c_str());
  }
}

/// tmsd-flight-v1 dump -> atomic replace of `path` (or stderr when no
/// path is configured, so a bare SIGUSR2 still surfaces the ring).
void dump_flight(const std::string& path, const obs::FlightRecorder& recorder) {
  const std::string text = obs::flight_to_json(recorder);
  if (path.empty()) {
    std::fprintf(stderr, "%s\n", text.c_str());
  } else if (const auto err = support::write_file_atomic(path, text + "\n")) {
    std::fprintf(stderr, "tmsd: %s\n", err->c_str());
    return;
  }
  obs::counters().serve_flight_dumps.add(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  serve::ServiceOptions service_opts;
  serve::ServerOptions server_opts;
  std::string cache_dir;
  std::size_t cache_capacity = 1 << 16;
  std::uint64_t cache_disk_max_bytes = 0;
  bool use_cache = true;
  std::vector<std::string> peers;
  int peer_timeout_ms = 1000;
  bool print_counters = false;
  std::string metrics_dump;
  std::int64_t metrics_interval_ms = 0;
  std::string slow_log_path;
  std::size_t flight_size = 256;
  std::string flight_dump;

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
    } else if (a == "--tcp-port") {
      int_arg("--tcp-port", tcp_port);
    } else if (a == "--threads") {
      int_arg("--threads", service_opts.threads);
    } else if (a == "--queue-capacity") {
      int_arg("--queue-capacity", service_opts.queue_capacity);
    } else if (a == "--retry-after-ms") {
      int_arg("--retry-after-ms", service_opts.retry_after_ms);
    } else if (a == "--max-connections") {
      int_arg("--max-connections", server_opts.max_connections);
    } else if (a == "--idle-timeout-ms") {
      int_arg("--idle-timeout-ms", server_opts.idle_timeout_ms);
    } else if (a == "--cache-dir") {
      cache_dir = next("--cache-dir");
    } else if (a == "--cache-capacity") {
      int_arg("--cache-capacity", cache_capacity);
    } else if (a == "--cache-disk-max-bytes") {
      int_arg("--cache-disk-max-bytes", cache_disk_max_bytes);
    } else if (a == "--no-cache") {
      use_cache = false;
    } else if (a == "--peer") {
      peers.emplace_back(next("--peer"));
    } else if (a == "--peer-timeout-ms") {
      int_arg("--peer-timeout-ms", peer_timeout_ms);
    } else if (a != "--ncore" && policy::is_machine_flag(a)) {
      if (const auto err =
              policy::parse_machine_flag(a, next(a.c_str()), service_opts.machine_defaults)) {
        std::fprintf(stderr, "%s\n", err->c_str());
        return 2;
      }
    } else if (a == "--no-validate") {
      service_opts.validate = false;
    } else if (a == "--counters") {
      print_counters = true;
    } else if (a == "--metrics-dump") {
      metrics_dump = next("--metrics-dump");
    } else if (a == "--metrics-interval-ms") {
      int_arg("--metrics-interval-ms", metrics_interval_ms);
    } else if (a == "--sim-verify") {
      service_opts.sim_verify = true;
    } else if (a == "--sim-verify-iters") {
      int_arg("--sim-verify-iters", service_opts.sim_verify_iterations);
    } else if (a == "--slow-ms") {
      int_arg("--slow-ms", service_opts.slow_ms);
    } else if (a == "--slow-log") {
      slow_log_path = next("--slow-log");
    } else if (a == "--flight-size") {
      int_arg("--flight-size", flight_size);
    } else if (a == "--flight-dump") {
      flight_dump = next("--flight-dump");
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    return usage(argv[0]);
  }

  if (::pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "pipe: %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction sa {};
  sa.sa_handler = on_signal;
  ::sigemptyset(&sa.sa_mask);
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
  struct sigaction sa_usr1 {};
  sa_usr1.sa_handler = on_sigusr1;
  ::sigemptyset(&sa_usr1.sa_mask);
  ::sigaction(SIGUSR1, &sa_usr1, nullptr);
  struct sigaction sa_usr2 {};
  sa_usr2.sa_handler = on_sigusr2;
  ::sigemptyset(&sa_usr2.sa_mask);
  ::sigaction(SIGUSR2, &sa_usr2, nullptr);
  ::signal(SIGPIPE, SIG_IGN);

  std::FILE* slow_log_file = nullptr;
  if (!slow_log_path.empty()) {
    slow_log_file = std::fopen(slow_log_path.c_str(), "a");
    if (slow_log_file == nullptr) {
      std::fprintf(stderr, "tmsd: cannot open slow log %s: %s\n", slow_log_path.c_str(),
                   std::strerror(errno));
      return 1;
    }
    service_opts.slow_log = slow_log_file;
  }

  machine::MachineModel mach;
  std::optional<driver::ScheduleCache> cache;
  if (use_cache) cache.emplace(cache_capacity, cache_dir, cache_disk_max_bytes);

  // The flight recorder is always on (the FLIGHT verb and SIGUSR2 need
  // no opt-in); --flight-size only resizes the ring. A configured
  // --flight-dump additionally snapshots the ring on every slow request,
  // rate limited so a burst of slow requests costs one dump per second.
  obs::FlightRecorder flight(flight_size == 0 ? 1 : flight_size);
  service_opts.flight = &flight;
  std::atomic<std::int64_t> last_slow_dump_ms{-1000000};
  if (!flight_dump.empty()) {
    service_opts.on_slow = [&flight, &flight_dump, &last_slow_dump_ms]() {
      const std::int64_t now_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                      std::chrono::steady_clock::now().time_since_epoch())
                                      .count();
      std::int64_t prev = last_slow_dump_ms.load(std::memory_order_relaxed);
      if (now_ms - prev < 1000) return;
      if (!last_slow_dump_ms.compare_exchange_strong(prev, now_ms,
                                                     std::memory_order_relaxed)) {
        return;  // another slow request is dumping right now
      }
      dump_flight(flight_dump, flight);
    };
  }

  if (!peers.empty() && use_cache) {
    service_opts.peer_fill = serve::peek_peers(peers, peer_timeout_ms);
  }

  serve::CompileService service(mach, cache ? &*cache : nullptr, service_opts);
  server_opts.unix_path = socket_path;
  server_opts.tcp_port = tcp_port;
  serve::SocketServer server(service, server_opts);
  if (const auto err = server.start()) {
    std::fprintf(stderr, "tmsd: %s\n", err->c_str());
    return 1;
  }

  std::printf("tmsd: listening on %s", socket_path.c_str());
  if (server.tcp_port() >= 0) std::printf(" and 127.0.0.1:%d", server.tcp_port());
  std::printf(" (%d worker(s), queue %zu)\n", service.pool().threads(),
              service.options().queue_capacity);
  std::fflush(stdout);

  // Block until a terminating signal arrives. SIGUSR1 (and the periodic
  // timer, when --metrics-interval-ms is set) only dumps metrics and
  // keeps serving.
  const int poll_timeout =
      !metrics_dump.empty() && metrics_interval_ms > 0 ? static_cast<int>(metrics_interval_ms)
                                                       : -1;
  for (;;) {
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    const int r = ::poll(&pfd, 1, poll_timeout);
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) {
      // Periodic dump tick.
      if (!metrics_dump.empty()) dump_metrics(metrics_dump);
      continue;
    }
    if (r > 0 && (pfd.revents & POLLIN) != 0) {
      char buf[16];
      [[maybe_unused]] const ssize_t n = ::read(g_signal_pipe[0], buf, sizeof buf);
      bool handled = false;
      if (g_dump_requested != 0 && g_signal_count == 0) {
        g_dump_requested = 0;
        if (!metrics_dump.empty()) dump_metrics(metrics_dump);
        handled = true;
      }
      if (g_flight_requested != 0 && g_signal_count == 0) {
        g_flight_requested = 0;
        dump_flight(flight_dump, flight);
        handled = true;
      }
      if (handled) continue;
      break;
    }
    if (r < 0) break;
  }

  std::printf("tmsd: draining\n");
  std::fflush(stdout);

  // Transport first (no new requests can arrive), then the service (the
  // already-admitted queue runs dry). A second signal mid-drain aborts.
  server.drain();
  if (g_signal_count > 1) {
    std::fprintf(stderr, "tmsd: second signal during drain, aborting\n");
    return 130;
  }
  service.shutdown();

  if (cache.has_value()) {
    const auto stats = cache->stats();
    std::printf("tmsd: cache at exit: %llu hit(s), %llu miss(es), %llu insert(s), "
                "%llu byte(s) on disk\n",
                (unsigned long long)stats.hits(), (unsigned long long)stats.misses,
                (unsigned long long)stats.inserts, (unsigned long long)stats.disk_bytes);
  }
  if (print_counters) {
    std::printf("%s", obs::counters_to_text(obs::counters_snapshot()).c_str());
  }
  // Final exposition so a scrape after shutdown sees the complete tally,
  // and a last flight dump so the final requests' records survive exit.
  if (!metrics_dump.empty()) dump_metrics(metrics_dump);
  if (!flight_dump.empty()) dump_flight(flight_dump, flight);
  if (slow_log_file != nullptr) std::fclose(slow_log_file);
  std::printf("tmsd: drained, exiting\n");
  return 0;
}
