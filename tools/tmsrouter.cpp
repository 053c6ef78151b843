// tmsrouter — sharded-cluster front-end for tmsd backends.
//
// Speaks the same TMSQ wire protocol as tmsd on its own socket and
// routes every COMPILE to one of N backends by the content-addressed
// schedule-cache key over a consistent-hash ring, so each loop lands on
// the shard whose cache is warm for it. A background prober drives the
// HEALTH verb to eject dead backends and readmit recovered ones;
// overloaded shards are retried then hedged to the next ring replica.
// Ring, ejection, hedging, and the peer-fill protocol are documented in
// docs/ROUTING.md.
//
// Usage:
//   tmsrouter --socket PATH --backend ADDR [--backend ADDR ...]
//     --socket PATH            Unix-domain socket to listen on (required)
//     --tcp-port N             also listen on 127.0.0.1:N (0 = ephemeral)
//     --backend ADDR           a tmsd to front: Unix socket path, or
//                              host:port for loopback TCP (repeatable,
//                              required at least once)
//     --vnodes N               ring points per backend    (default 64)
//     --retries N              same-backend resends on overload (default 2)
//     --hedges N               further ring replicas to try (default 2)
//     --retry-sleep-cap-ms N   clamp on honoured retry_after_ms hints
//                                                         (default 200)
//     --backend-timeout-ms N   per-forward send/recv timeout (default 30000)
//     --probe-interval-ms N    health-probe period (default 250; 0 = boot
//                              probe only)
//     --probe-timeout-ms N     per-probe timeout          (default 2000)
//     --eject-after N          consecutive failures before ejection
//                                                         (default 2)
//     --retry-after-ms N       backoff hint on router-minted overload
//                              answers                    (default 100)
//     --max-connections N      live client connections before turn-away
//                                                         (default 64)
//     --idle-timeout-ms N      close idle client connections (default
//                              30000, 0 = never)
//     --counters               print the counter table on exit
//     --metrics-dump PATH      write the router's own Prometheus text
//                              exposition to PATH on SIGUSR1 (and per
//                              --metrics-interval-ms)
//     --cluster-metrics-dump PATH
//                              write the merged cluster exposition to
//                              PATH on the same triggers: the router's
//                              registry plus every reachable backend's,
//                              one sample set per shard="<address>"
//                              label (the router is shard="router").
//                              Each dump fans STATS out to all backends
//     --metrics-interval-ms N  also dump every N ms (0 = signal-only)
//
// Lifecycle mirrors tmsd: SIGTERM/SIGINT stops accepting, answers
// in-flight requests, and exits 0; a second signal aborts (130);
// SIGUSR1 only dumps metrics. Readiness is the "tmsrouter: listening
// on ..." line. STATS answers a tmsrouter-stats-v1 snapshot (per-backend
// health and latency plus the counter registry); CLUSTER_STATS answers
// the merged cluster-stats-v1 aggregate, which is what `tmstop
// --cluster` renders (docs/ROUTING.md).
#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "machine/machine.hpp"
#include "obs/counters.hpp"
#include "obs/prometheus.hpp"
#include "router/router.hpp"
#include "serve/server.hpp"
#include "support/file.hpp"
#include "support/parse.hpp"

using namespace tms;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH --backend ADDR [--backend ADDR ...]\n"
               "          [--tcp-port N] [--vnodes N] [--retries N] [--hedges N]\n"
               "          [--retry-sleep-cap-ms N] [--backend-timeout-ms N]\n"
               "          [--probe-interval-ms N] [--probe-timeout-ms N] [--eject-after N]\n"
               "          [--retry-after-ms N] [--max-connections N] [--idle-timeout-ms N]\n"
               "          [--counters] [--metrics-dump PATH] [--cluster-metrics-dump PATH]\n"
               "          [--metrics-interval-ms N]\n",
               argv0);
  return 2;
}

int g_signal_pipe[2] = {-1, -1};
volatile sig_atomic_t g_signal_count = 0;
volatile sig_atomic_t g_dump_requested = 0;

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

/// Lint + atomic replace of `path`, shared by the single-process and
/// merged cluster expositions.
void write_exposition(const std::string& path, const std::string& text) {
  if (const auto err = obs::lint_prometheus_text(text)) {
    std::fprintf(stderr, "tmsrouter: metrics exposition failed its own lint: %s\n",
                 err->c_str());
  }
  if (const auto err = support::write_file_atomic(path, text)) {
    std::fprintf(stderr, "tmsrouter: %s\n", err->c_str());
  }
}

void dump_metrics(const std::string& path) {
  write_exposition(path, obs::write_prometheus_text(obs::counters_snapshot()));
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  int tcp_port = -1;
  router::RouterOptions ropts;
  serve::ServerOptions server_opts;
  bool print_counters = false;
  std::string metrics_dump;
  std::string cluster_metrics_dump;
  std::int64_t metrics_interval_ms = 0;

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
    } else if (a == "--backend") {
      ropts.backends.emplace_back(next("--backend"));
    } else if (a == "--vnodes") {
      int_arg("--vnodes", ropts.vnodes);
    } else if (a == "--retries") {
      int_arg("--retries", ropts.retries);
    } else if (a == "--hedges") {
      int_arg("--hedges", ropts.hedges);
    } else if (a == "--retry-sleep-cap-ms") {
      int_arg("--retry-sleep-cap-ms", ropts.retry_sleep_cap_ms);
    } else if (a == "--backend-timeout-ms") {
      int_arg("--backend-timeout-ms", ropts.backend_timeout_ms);
    } else if (a == "--probe-interval-ms") {
      int_arg("--probe-interval-ms", ropts.probe_interval_ms);
    } else if (a == "--probe-timeout-ms") {
      int_arg("--probe-timeout-ms", ropts.probe_timeout_ms);
    } else if (a == "--eject-after") {
      int_arg("--eject-after", ropts.eject_after);
    } else if (a == "--retry-after-ms") {
      int_arg("--retry-after-ms", ropts.retry_after_ms);
    } else if (a == "--max-connections") {
      int_arg("--max-connections", server_opts.max_connections);
    } else if (a == "--idle-timeout-ms") {
      int_arg("--idle-timeout-ms", server_opts.idle_timeout_ms);
    } else if (a == "--counters") {
      print_counters = true;
    } else if (a == "--metrics-dump") {
      metrics_dump = next("--metrics-dump");
    } else if (a == "--cluster-metrics-dump") {
      cluster_metrics_dump = next("--cluster-metrics-dump");
    } else if (a == "--metrics-interval-ms") {
      int_arg("--metrics-interval-ms", metrics_interval_ms);
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty()) {
    std::fprintf(stderr, "--socket is required\n");
    return usage(argv[0]);
  }
  if (ropts.backends.empty()) {
    std::fprintf(stderr, "at least one --backend is required\n");
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
  ::signal(SIGPIPE, SIG_IGN);

  machine::MachineModel mach;
  router::Router router(mach, ropts);
  if (const auto err = router.start()) {
    std::fprintf(stderr, "tmsrouter: %s\n", err->c_str());
    return 1;
  }

  server_opts.unix_path = socket_path;
  server_opts.tcp_port = tcp_port;
  serve::SocketServer server(router, server_opts);
  if (const auto err = server.start()) {
    std::fprintf(stderr, "tmsrouter: %s\n", err->c_str());
    return 1;
  }

  std::printf("tmsrouter: listening on %s", socket_path.c_str());
  if (server.tcp_port() >= 0) std::printf(" and 127.0.0.1:%d", server.tcp_port());
  std::printf(" fronting %zu backend(s), %zu healthy\n", ropts.backends.size(),
              router.healthy_count());
  std::fflush(stdout);

  const auto dump_all = [&]() {
    if (!metrics_dump.empty()) dump_metrics(metrics_dump);
    if (!cluster_metrics_dump.empty()) {
      write_exposition(cluster_metrics_dump, router.cluster_prometheus_text());
    }
  };
  const bool any_dump = !metrics_dump.empty() || !cluster_metrics_dump.empty();
  const int poll_timeout =
      any_dump && metrics_interval_ms > 0 ? static_cast<int>(metrics_interval_ms) : -1;
  for (;;) {
    pollfd pfd{g_signal_pipe[0], POLLIN, 0};
    const int r = ::poll(&pfd, 1, poll_timeout);
    if (r < 0 && errno == EINTR) continue;
    if (r == 0) {
      dump_all();
      continue;
    }
    if (r > 0 && (pfd.revents & POLLIN) != 0) {
      char buf[16];
      [[maybe_unused]] const ssize_t n = ::read(g_signal_pipe[0], buf, sizeof buf);
      if (g_dump_requested != 0 && g_signal_count == 0) {
        g_dump_requested = 0;
        dump_all();
        continue;
      }
      break;
    }
    if (r < 0) break;
  }

  std::printf("tmsrouter: draining\n");
  std::fflush(stdout);

  // Same order as tmsd: refuse new work, flush the transport's
  // in-flight requests, then stop the prober.
  router.begin_drain();
  server.drain();
  if (g_signal_count > 1) {
    std::fprintf(stderr, "tmsrouter: second signal during drain, aborting\n");
    return 130;
  }
  router.stop();

  for (const auto& b : router.backends_snapshot()) {
    std::printf("tmsrouter: backend %s: %s, %llu forwarded, %llu transport error(s)\n",
                b.address.c_str(), b.healthy ? "healthy" : "ejected",
                (unsigned long long)b.forwarded, (unsigned long long)b.transport_errors);
  }
  if (print_counters) {
    std::printf("%s", obs::counters_to_text(obs::counters_snapshot()).c_str());
  }
  // Final router-only exposition; the cluster dump would need live
  // backends, which may already be gone at this point.
  if (!metrics_dump.empty()) dump_metrics(metrics_dump);
  std::printf("tmsrouter: drained, exiting\n");
  return 0;
}
