// In-process cluster harness: N tmsd-shaped backends behind a Router.
//
// loadgen --cluster, the benchmark's serve_mix workload, and
// router_test all need the same topology — N CompileServices, each with
// its own ScheduleCache and SocketServer on a Unix socket, all-to-all
// peer-fill wiring, and a Router (also behind a SocketServer) in front
// — without forking processes. LocalCluster builds exactly that, over
// real sockets, so everything except process isolation matches the
// tmsd/tmsrouter deployment (tests/router_smoke.sh covers the
// real-process version, including kill -9).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "driver/schedule_cache.hpp"
#include "machine/machine.hpp"
#include "router/router.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"

namespace tms::router {

struct LocalClusterOptions {
  int backends = 2;
  int threads_per_backend = 1;        ///< compile workers per shard
  std::size_t queue_capacity = 64;    ///< per-shard admission high-water mark
  std::int64_t retry_after_ms = 5;    ///< per-shard overload backoff hint
  /// Per-shard in-memory ScheduleCache entry bound; 0 = no cache at
  /// all (every request schedules fresh — honest scaling numbers).
  std::size_t cache_capacity = 1 << 16;
  bool peer_fill = true;              ///< all-to-all PEEK wiring between shards
  int peer_timeout_ms = 1000;
  bool validate = true;
  /// Directory for the Unix sockets ("b<i>.sock", "router.sock");
  /// must exist and be short enough for sockaddr_un.
  std::string dir;
  RouterOptions router;               ///< backends/vnodes filled in by start()
};

class LocalCluster {
 public:
  /// `mach` must outlive the cluster.
  LocalCluster(const machine::MachineModel& mach, LocalClusterOptions opts);
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Brings up every backend, then the router. Returns a failure
  /// description, or nullopt.
  std::optional<std::string> start();

  /// Router first (stop routing), then the backends. Idempotent.
  void stop();

  const std::string& router_socket() const { return router_socket_; }
  const std::string& backend_socket(int i) const { return backend_sockets_[static_cast<std::size_t>(i)]; }
  int backends() const { return static_cast<int>(backend_sockets_.size()); }

  Router& router() { return *router_; }
  serve::CompileService& service(int i) { return *shards_[static_cast<std::size_t>(i)]->service; }
  driver::ScheduleCache* cache(int i) { return shards_[static_cast<std::size_t>(i)]->cache.get(); }

 private:
  struct Shard {
    std::unique_ptr<driver::ScheduleCache> cache;
    std::unique_ptr<serve::CompileService> service;
    std::unique_ptr<serve::SocketServer> server;
  };

  const machine::MachineModel& mach_;
  LocalClusterOptions opts_;
  std::vector<std::string> backend_sockets_;
  std::string router_socket_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::unique_ptr<Router> router_;
  std::unique_ptr<serve::SocketServer> router_server_;
  bool started_ = false;
};

}  // namespace tms::router
