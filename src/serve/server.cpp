#include "serve/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "obs/counters.hpp"
#include "serve/frame.hpp"

namespace tms::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// Poll granularity: how quickly connection threads notice idle
/// deadlines and the accept thread reaps finished connections. Shutdown
/// does not wait for it: drain() wakes every poll through wake_fd_.
constexpr int kTickMs = 200;

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

bool send_frame(int fd, FrameType type, std::string_view payload) {
  return send_all(fd, encode_frame(type, payload));
}

}  // namespace

SocketServer::SocketServer(Handler& handler, ServerOptions opts)
    : handler_(handler), opts_(std::move(opts)) {}

SocketServer::~SocketServer() { drain(); }

std::optional<std::string> SocketServer::start() {
  if (running_.load(std::memory_order_acquire)) return std::string("already started");
  if (opts_.unix_path.empty()) return std::string("unix_path is required");

  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (opts_.unix_path.size() >= sizeof addr.sun_path) {
    return "unix_path too long (" + std::to_string(opts_.unix_path.size()) + " bytes, max " +
           std::to_string(sizeof addr.sun_path - 1) + ")";
  }
  std::memcpy(addr.sun_path, opts_.unix_path.c_str(), opts_.unix_path.size() + 1);

  unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (unix_fd_ < 0) return std::string("socket: ") + std::strerror(errno);
  ::unlink(opts_.unix_path.c_str());
  if (::bind(unix_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(unix_fd_, 128) != 0) {
    const std::string err = std::string("bind/listen ") + opts_.unix_path + ": " +
                            std::strerror(errno);
    ::close(unix_fd_);
    unix_fd_ = -1;
    return err;
  }

  if (opts_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) {
      ::close(unix_fd_);
      unix_fd_ = -1;
      return std::string("tcp socket: ") + std::strerror(errno);
    }
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in in{};
    in.sin_family = AF_INET;
    in.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, deliberately
    in.sin_port = htons(static_cast<std::uint16_t>(opts_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<const sockaddr*>(&in), sizeof in) != 0 ||
        ::listen(tcp_fd_, 128) != 0) {
      const std::string err = std::string("tcp bind/listen port ") +
                              std::to_string(opts_.tcp_port) + ": " + std::strerror(errno);
      ::close(tcp_fd_);
      ::close(unix_fd_);
      tcp_fd_ = unix_fd_ = -1;
      return err;
    }
    sockaddr_in bound{};
    socklen_t len = sizeof bound;
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len) == 0) {
      tcp_port_ = static_cast<int>(ntohs(bound.sin_port));
    }
  }

  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    const std::string err = std::string("eventfd: ") + std::strerror(errno);
    if (tcp_fd_ >= 0) ::close(tcp_fd_);
    ::close(unix_fd_);
    tcp_fd_ = unix_fd_ = -1;
    return err;
  }

  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { accept_loop(); });
  return std::nullopt;
}

void SocketServer::drain() {
  stop_.store(true, std::memory_order_release);
  if (wake_fd_ >= 0) {
    // Never read back: the eventfd stays readable, so every poll that
    // includes it returns at once, now and on every later loop turn.
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof one);
  }
  if (accept_thread_.joinable()) accept_thread_.join();
  reap_finished(/*join_all=*/true);
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

int SocketServer::connection_count() const {
  std::lock_guard<std::mutex> lock(conns_mu_);
  int live = 0;
  for (const auto& c : conns_) {
    if (!c->done.load(std::memory_order_acquire)) ++live;
  }
  return live;
}

void SocketServer::reap_finished(bool join_all) {
  std::lock_guard<std::mutex> lock(conns_mu_);
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (join_all || (*it)->done.load(std::memory_order_acquire)) {
      if ((*it)->th.joinable()) (*it)->th.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void SocketServer::accept_loop() {
  pollfd pfds[3];
  nfds_t nlisten = 0;
  pfds[nlisten++] = {unix_fd_, POLLIN, 0};
  if (tcp_fd_ >= 0) pfds[nlisten++] = {tcp_fd_, POLLIN, 0};
  pfds[nlisten] = {wake_fd_, POLLIN, 0};

  while (!stop_.load(std::memory_order_acquire)) {
    const int r = ::poll(pfds, nlisten + 1, kTickMs);
    reap_finished(/*join_all=*/false);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) continue;
    for (nfds_t i = 0; i < nlisten; ++i) {
      if ((pfds[i].revents & POLLIN) == 0) continue;
      sockaddr_storage peer_addr{};
      socklen_t peer_len = sizeof peer_addr;
      const int fd = ::accept4(pfds[i].fd, reinterpret_cast<sockaddr*>(&peer_addr), &peer_len,
                               SOCK_CLOEXEC);
      if (fd < 0) continue;
      std::string peer = "unix";
      if (peer_addr.ss_family == AF_INET) {
        const auto* in = reinterpret_cast<const sockaddr_in*>(&peer_addr);
        char ip[INET_ADDRSTRLEN] = {};
        ::inet_ntop(AF_INET, &in->sin_addr, ip, sizeof ip);
        peer = std::string(ip) + ":" + std::to_string(ntohs(in->sin_port));
      }
      obs::counters().serve_connections.add(1);
      if (connection_count() >= opts_.max_connections) {
        // Turn the connection away with a structured answer rather than
        // letting it rot in the backlog or vanish with a reset.
        obs::counters().serve_rejected_overload.add(1);
        const Response err =
            make_error(0, ErrorCode::kOverload, "connection limit reached",
                       handler_.retry_after_ms());
        send_frame(fd, FrameType::kResponse, serialise_response(err));
        ::shutdown(fd, SHUT_RDWR);
        ::close(fd);
        continue;
      }
      auto conn = std::make_unique<Conn>();
      conn->fd = fd;
      conn->peer = std::move(peer);
      Conn* raw = conn.get();
      {
        std::lock_guard<std::mutex> lock(conns_mu_);
        conns_.push_back(std::move(conn));
      }
      raw->th = std::thread([this, raw] { connection_loop(raw); });
    }
  }

  if (unix_fd_ >= 0) {
    ::close(unix_fd_);
    unix_fd_ = -1;
    ::unlink(opts_.unix_path.c_str());
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
}

void SocketServer::connection_loop(Conn* conn) {
  const int fd = conn->fd;
  FrameReader reader;
  const auto idle_budget = std::chrono::milliseconds(
      opts_.idle_timeout_ms > 0 ? opts_.idle_timeout_ms : 0);
  Clock::time_point idle_deadline = Clock::now() + idle_budget;
  char buf[64 * 1024];
  bool alive = true;

  while (alive && !stop_.load(std::memory_order_acquire)) {
    pollfd pfds[2] = {{fd, POLLIN, 0}, {wake_fd_, POLLIN, 0}};
    const int r = ::poll(pfds, 2, kTickMs);
    if (r < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (r == 0) {
      if (opts_.idle_timeout_ms > 0 && Clock::now() > idle_deadline) {
        obs::counters().serve_idle_timeouts.add(1);
        break;
      }
      continue;
    }
    if (pfds[0].revents == 0) continue;  // only the drain wake-up: stop_ is set
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n == 0) break;  // peer closed
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN) continue;
      break;
    }
    idle_deadline = Clock::now() + idle_budget;

    reader.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    Frame frame;
    while (alive) {
      const FrameReader::Next next = reader.next(frame);
      if (next == FrameReader::Next::kNeedMore) break;
      if (next == FrameReader::Next::kError) {
        obs::counters().serve_rejected_malformed.add(1);
        const Response err =
            make_error(0, ErrorCode::kParse,
                       std::string("malformed frame: ") + std::string(to_string(reader.error())));
        send_frame(fd, FrameType::kResponse, serialise_response(err));
        alive = false;  // framing cannot resync; drop the connection
        break;
      }
      if (!handle_frame(fd, frame, conn->peer)) alive = false;
    }
  }

  ::shutdown(fd, SHUT_RDWR);
  ::close(fd);
  conn->done.store(true, std::memory_order_release);
}

bool SocketServer::handle_frame(int fd, const Frame& frame, const std::string& peer) {
  switch (frame.type) {
    case FrameType::kPing:
      return send_frame(fd, FrameType::kPong, {});
    case FrameType::kStats:
      // Side-channel snapshot: cheap, never queued, and answered even
      // while the service drains — the monitoring path must not die
      // first during shutdown.
      obs::counters().serve_stats_requests.add(1);
      return send_frame(fd, FrameType::kStatsReply, handler_.stats_json());
    case FrameType::kHealth:
      obs::counters().serve_stats_requests.add(1);
      return send_frame(fd, FrameType::kHealthReply, handler_.health_line());
    case FrameType::kPeek:
      // Cache peer-fill probe: same side-channel contract as
      // STATS/HEALTH — answered from the cache on this thread, never
      // queued behind compile work, and still answered while draining
      // (a sibling mid-drain is exactly when its cache is warmest).
      obs::counters().serve_peek_requests.add(1);
      return send_frame(fd, FrameType::kPeekReply, handler_.peek_reply(frame.payload));
    case FrameType::kClusterStats:
      // Cluster telemetry joins the side channel: on a router this fans
      // out to the backends and merges; on a daemon it answers a
      // one-shard snapshot. Either way it is served inline and during
      // drain — the cluster view must outlive the request path.
      obs::counters().serve_cluster_stats_requests.add(1);
      return send_frame(fd, FrameType::kClusterStatsReply, handler_.cluster_stats_json());
    case FrameType::kFlight:
      obs::counters().serve_flight_requests.add(1);
      return send_frame(fd, FrameType::kFlightReply, handler_.flight_json());
    case FrameType::kRequest: {
      ErrorCode code = ErrorCode::kParse;
      auto parsed = parse_request(frame.payload, &code);
      if (const auto* err = std::get_if<std::string>(&parsed)) {
        // Well-framed but unparseable, or over a bound (bad-request):
        // answer and keep the connection — the byte stream itself is
        // still in sync.
        obs::counters().serve_rejected_malformed.add(1);
        const Response resp = make_error(0, code, *err);
        return send_frame(fd, FrameType::kResponse, serialise_response(resp));
      }
      const Response resp = handler_.handle(std::get<Request>(parsed), peer);
      return send_frame(fd, FrameType::kResponse, serialise_response(resp));
    }
    case FrameType::kResponse:
    case FrameType::kPong:
    case FrameType::kStatsReply:
    case FrameType::kHealthReply:
    case FrameType::kPeekReply:
    case FrameType::kClusterStatsReply:
    case FrameType::kFlightReply:
      // Clients must not send server-direction frames.
      obs::counters().serve_rejected_malformed.add(1);
      const Response resp =
          make_error(0, ErrorCode::kBadRequest,
                     std::string("unexpected frame type ") + std::string(to_string(frame.type)));
      send_frame(fd, FrameType::kResponse, serialise_response(resp));
      return false;
  }
  return false;
}

}  // namespace tms::serve
