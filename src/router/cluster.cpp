#include "router/cluster.hpp"

#include <utility>

namespace tms::router {

LocalCluster::LocalCluster(const machine::MachineModel& mach, LocalClusterOptions opts)
    : mach_(mach), opts_(std::move(opts)) {}

LocalCluster::~LocalCluster() { stop(); }

std::optional<std::string> LocalCluster::start() {
  if (started_) return std::string("already started");
  if (opts_.backends < 1) return std::string("need at least one backend");
  if (opts_.dir.empty()) return std::string("dir is required");

  backend_sockets_.clear();
  for (int i = 0; i < opts_.backends; ++i) {
    backend_sockets_.push_back(opts_.dir + "/b" + std::to_string(i) + ".sock");
  }
  router_socket_ = opts_.dir + "/router.sock";

  for (int i = 0; i < opts_.backends; ++i) {
    auto shard = std::make_unique<Shard>();
    if (opts_.cache_capacity > 0) {
      shard->cache = std::make_unique<driver::ScheduleCache>(opts_.cache_capacity);
    }

    serve::ServiceOptions sopts;
    sopts.threads = opts_.threads_per_backend;
    sopts.queue_capacity = opts_.queue_capacity;
    sopts.retry_after_ms = opts_.retry_after_ms;
    sopts.validate = opts_.validate;
    if (opts_.peer_fill && opts_.backends > 1 && shard->cache != nullptr) {
      // All-to-all: ask every other shard in fixed order.
      std::vector<std::string> peers;
      for (int j = 0; j < opts_.backends; ++j) {
        if (j != i) peers.push_back(backend_sockets_[static_cast<std::size_t>(j)]);
      }
      sopts.peer_fill = serve::peek_peers(std::move(peers), opts_.peer_timeout_ms);
    }
    shard->service =
        std::make_unique<serve::CompileService>(mach_, shard->cache.get(), sopts);

    serve::ServerOptions svopts;
    svopts.unix_path = backend_sockets_[static_cast<std::size_t>(i)];
    shard->server = std::make_unique<serve::SocketServer>(*shard->service, svopts);
    if (auto err = shard->server->start()) {
      shards_.push_back(std::move(shard));  // so stop() tears down what exists
      stop();
      return "backend " + std::to_string(i) + ": " + *err;
    }
    shards_.push_back(std::move(shard));
  }

  RouterOptions ropts = opts_.router;
  ropts.backends = backend_sockets_;
  router_ = std::make_unique<Router>(mach_, ropts);
  if (auto err = router_->start()) {
    stop();
    return "router: " + *err;
  }
  serve::ServerOptions svopts;
  svopts.unix_path = router_socket_;
  router_server_ = std::make_unique<serve::SocketServer>(*router_, svopts);
  if (auto err = router_server_->start()) {
    stop();
    return "router server: " + *err;
  }
  started_ = true;
  return std::nullopt;
}

void LocalCluster::stop() {
  // Same drain order as the daemons: transport first, then the brain —
  // admitted work always completes.
  if (router_ != nullptr) router_->begin_drain();
  if (router_server_ != nullptr) router_server_->drain();
  if (router_ != nullptr) router_->stop();
  router_server_.reset();
  router_.reset();
  for (auto& shard : shards_) {
    if (shard->server != nullptr) shard->server->drain();
    if (shard->service != nullptr) shard->service->shutdown();
  }
  shards_.clear();
  started_ = false;
}

}  // namespace tms::router
