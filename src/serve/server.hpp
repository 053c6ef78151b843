// The tmsd/tmsrouter transport: sockets, connections, graceful drain.
//
// SocketServer owns the listening sockets (a Unix-domain socket always;
// a loopback TCP socket when asked) and one thread per live connection.
// It is a thin shell: every byte that arrives goes through FrameReader,
// every complete request frame through message.hpp's strict parser, and
// every parsed request through Handler::handle() — the server adds
// only what a transport must: accept limits, idle timeouts, and
// orderly shutdown. The Handler seam is what tmsd (CompileService) and
// tmsrouter (router::Router) share.
//
// Robustness contract (exercised by tests/serve_smoke.sh):
//   - over max_connections, a new connection is accepted, answered with
//     a structured kOverload response (retry_after_ms set), and closed —
//     never left hanging in the backlog and never dropped silently;
//   - a connection that sends a malformed frame gets a best-effort
//     kParse error and is dropped (framing cannot resync); a well-framed
//     but unparseable payload gets a kParse error and keeps its
//     connection;
//   - a connection idle past idle_timeout_ms is closed (slowloris
//     guard) and counted in serve.idle_timeouts;
//   - drain() stops accepting, lets every in-flight request finish and
//     its response flush, then joins all threads. It never aborts a
//     request that was already admitted, and it does not wait for a
//     poll tick: an eventfd in every poll set wakes idle threads at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "serve/frame.hpp"
#include "serve/handler.hpp"

namespace tms::serve {

struct ServerOptions {
  std::string unix_path;           ///< required; unlinked on bind and on drain
  int tcp_port = -1;               ///< -1 = no TCP; 0 = ephemeral (see tcp_port())
  int max_connections = 64;        ///< live connections before overload turn-away
  std::int64_t idle_timeout_ms = 30000;  ///< 0 = never time out idle connections
};

class SocketServer {
 public:
  /// `handler` must outlive the server.
  SocketServer(Handler& handler, ServerOptions opts);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and starts the accept thread. Returns a
  /// description of the failure, or nullopt on success.
  std::optional<std::string> start();

  /// Stop accepting, finish in-flight requests, join every thread.
  /// Idempotent. Does not touch the handler — the caller decides when
  /// to drain that (tmsd drains the transport first, then the service,
  /// so admitted work always completes).
  void drain();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Actual TCP port after start() (useful with tcp_port = 0); -1 when
  /// TCP is disabled.
  int tcp_port() const { return tcp_port_; }

  /// Live connection count (test hook for the overload turn-away path).
  int connection_count() const;

 private:
  struct Conn {
    int fd = -1;
    std::string peer;  ///< "unix" or "ip:port"; feeds the slow-request log
    std::thread th;
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void connection_loop(Conn* conn);
  /// Returns false when the connection must be dropped.
  bool handle_frame(int fd, const Frame& frame, const std::string& peer);
  void reap_finished(bool join_all);

  Handler& handler_;
  ServerOptions opts_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> running_{false};
  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int tcp_port_ = -1;
  int wake_fd_ = -1;  ///< eventfd in every poll set; drain() makes it readable
  std::thread accept_thread_;
  mutable std::mutex conns_mu_;
  std::list<std::unique_ptr<Conn>> conns_;
};

}  // namespace tms::serve
