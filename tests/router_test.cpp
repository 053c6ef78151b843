// Router subsystem tests: consistent-hash ring stability and balance,
// the PEEK peer-fill codec and its socket side channel, the in-process
// LocalCluster end to end (verified schedules, peer-fill hit counting),
// and health-driven ejection routing around a dead backend. The
// real-process version of the failover story (kill -9 under load) lives
// in tests/router_smoke.sh.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <future>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "driver/schedule_cache.hpp"
#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "router/cluster.hpp"
#include "router/ring.hpp"
#include "router/router.hpp"
#include "sched/tms.hpp"
#include "serve/client.hpp"
#include "serve/handler.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/json_parse.hpp"
#include "test_util.hpp"
#include "workloads/kernels.hpp"

namespace tms {
namespace {

namespace fs = std::filesystem;

/// Deterministic pseudo-random keys (splitmix64 stream).
std::vector<std::uint64_t> test_keys(std::size_t n) {
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < n; ++i) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    keys.push_back(z ^ (z >> 31));
  }
  return keys;
}

// ---- ring ----------------------------------------------------------------

TEST(HashRing, AddMovesOnlyNewOwnersShare) {
  router::HashRing ring;
  for (int i = 0; i < 4; ++i) ring.add("b" + std::to_string(i));
  const std::vector<std::uint64_t> keys = test_keys(4096);

  std::map<std::uint64_t, std::string> before;
  for (std::uint64_t k : keys) before[k] = ring.primary(k);

  ring.add("b4");
  std::size_t moved = 0;
  for (std::uint64_t k : keys) {
    const std::string now = ring.primary(k);
    if (now != before[k]) {
      ++moved;
      // Consistency: a key may only move TO the new backend.
      EXPECT_EQ(now, "b4") << "key moved between pre-existing backends";
    }
  }
  // Expected share is 1/5; allow generous slack around it, but a naive
  // mod-N rehash would move ~4/5 of the keys and must fail here.
  EXPECT_GT(moved, keys.size() / 20);
  EXPECT_LT(moved, keys.size() / 2);
}

TEST(HashRing, RemoveMovesOnlyOrphanedKeys) {
  router::HashRing ring;
  for (int i = 0; i < 4; ++i) ring.add("b" + std::to_string(i));
  const std::vector<std::uint64_t> keys = test_keys(4096);

  std::map<std::uint64_t, std::string> before;
  for (std::uint64_t k : keys) before[k] = ring.primary(k);

  ring.remove("b2");
  EXPECT_FALSE(ring.contains("b2"));
  for (std::uint64_t k : keys) {
    const std::string now = ring.primary(k);
    if (before[k] == "b2") {
      EXPECT_NE(now, "b2");
    } else {
      // Every key b2 did not own keeps its warm shard.
      EXPECT_EQ(now, before[k]);
    }
  }
}

TEST(HashRing, BalanceAcrossBackends) {
  router::HashRing ring;
  const int n = 4;
  for (int i = 0; i < n; ++i) ring.add("b" + std::to_string(i));
  std::map<std::string, std::size_t> share;
  const std::vector<std::uint64_t> keys = test_keys(16384);
  for (std::uint64_t k : keys) ++share[ring.primary(k)];
  ASSERT_EQ(share.size(), static_cast<std::size_t>(n));
  for (const auto& [node, count] : share) {
    const double frac = static_cast<double>(count) / static_cast<double>(keys.size());
    EXPECT_GT(frac, 0.10) << node << " is starved";
    EXPECT_LT(frac, 0.45) << node << " is overloaded";
  }
}

TEST(HashRing, SuccessorsAreDistinctAndStartAtPrimary) {
  router::HashRing ring;
  for (int i = 0; i < 4; ++i) ring.add("b" + std::to_string(i));
  for (std::uint64_t k : test_keys(64)) {
    const auto succ = ring.successors(k, 4);
    ASSERT_EQ(succ.size(), 4u);
    EXPECT_EQ(succ.front(), ring.primary(k));
    std::set<std::string> uniq(succ.begin(), succ.end());
    EXPECT_EQ(uniq.size(), succ.size());
  }
}

TEST(HashRing, EmptyAndSingleNode) {
  router::HashRing ring;
  EXPECT_EQ(ring.primary(1234), "");
  EXPECT_TRUE(ring.successors(1234, 3).empty());
  ring.add("only");
  EXPECT_EQ(ring.primary(1234), "only");
  const auto succ = ring.successors(1234, 3);
  ASSERT_EQ(succ.size(), 1u);
  EXPECT_EQ(succ.front(), "only");
}

// ---- PEEK codec ----------------------------------------------------------

TEST(PeekCodec, QueryRoundTrip) {
  serve::PeekQuery q;
  q.key = 0x0123456789abcdefull;
  q.expect_instrs = 17;
  const auto parsed = serve::parse_peek(serve::serialise_peek(q));
  const auto* back = std::get_if<serve::PeekQuery>(&parsed);
  ASSERT_NE(back, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(back->key, q.key);
  EXPECT_EQ(back->expect_instrs, q.expect_instrs);
}

TEST(PeekCodec, MalformedQueryIsAnError) {
  for (const char* bad : {"not-a-peek\n", "tmsq-peek-v1\nkey zz\n", ""}) {
    const auto parsed = serve::parse_peek(bad);
    EXPECT_NE(std::get_if<std::string>(&parsed), nullptr) << "accepted: " << bad;
  }
}

TEST(PeekCodec, ReplyRoundTripHit) {
  driver::ScheduleCache::Entry e;
  e.scheduler = "tms";
  e.ii = 7;
  e.mii = 5;
  e.c_delay_threshold = 3;
  e.p_max = 2.5;
  e.slots = {0, 1, 2, 5, 9};
  const auto parsed = serve::parse_peek_reply(serve::serialise_peek_reply(e));
  const auto* opt = std::get_if<std::optional<driver::ScheduleCache::Entry>>(&parsed);
  ASSERT_NE(opt, nullptr) << std::get<std::string>(parsed);
  ASSERT_TRUE(opt->has_value());
  EXPECT_EQ((*opt)->scheduler, "tms");
  EXPECT_EQ((*opt)->ii, 7);
  EXPECT_EQ((*opt)->mii, 5);
  EXPECT_EQ((*opt)->c_delay_threshold, 3);
  EXPECT_DOUBLE_EQ((*opt)->p_max, 2.5);
  EXPECT_EQ((*opt)->slots, (std::vector<int>{0, 1, 2, 5, 9}));
}

TEST(PeekCodec, ReplyRoundTripMiss) {
  const auto parsed = serve::parse_peek_reply(serve::serialise_peek_reply(std::nullopt));
  const auto* opt = std::get_if<std::optional<driver::ScheduleCache::Entry>>(&parsed);
  ASSERT_NE(opt, nullptr);
  EXPECT_FALSE(opt->has_value());
}

TEST(PeekCodec, MalformedProbeGetsWellFormedMissFromService) {
  const machine::MachineModel mach;
  driver::ScheduleCache cache(64);
  serve::CompileService service(mach, &cache, serve::ServiceOptions{});
  // A garbage probe must never crash the side channel — the contract is
  // a well-formed miss, so broken peers degrade to a recompute.
  const auto parsed = serve::parse_peek_reply(service.peek_reply("complete garbage"));
  const auto* opt = std::get_if<std::optional<driver::ScheduleCache::Entry>>(&parsed);
  ASSERT_NE(opt, nullptr);
  EXPECT_FALSE(opt->has_value());
  service.shutdown();
}

// ---- PEEK over a real socket ---------------------------------------------

class RouterSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "router_test." + std::to_string(::getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  std::string dir_;
};

TEST_F(RouterSocketTest, PeekHitAndMissOverSocket) {
  const machine::MachineModel mach;
  driver::ScheduleCache cache(1 << 10);
  serve::CompileService service(mach, &cache, serve::ServiceOptions{});
  serve::ServerOptions sopts;
  sopts.unix_path = dir_ + "/peek.sock";
  serve::SocketServer server(service, sopts);
  ASSERT_FALSE(server.start().has_value());

  std::vector<workloads::Kernel> kernels = workloads::classic_kernels();
  const ir::Loop& loop = kernels.front().loop;

  serve::Client client;
  ASSERT_FALSE(client.connect_unix(sopts.unix_path).has_value());
  serve::Request req;
  req.id = 1;
  req.scheduler = "tms";
  req.loop = loop;
  const auto resp = client.compile(req);
  const auto* ok = std::get_if<serve::Response>(&resp);
  ASSERT_NE(ok, nullptr);
  ASSERT_TRUE(ok->ok);

  // The compile populated the cache; a PEEK for its key must hit and
  // carry the same schedule.
  machine::SpmtConfig cfg;
  cfg.ncore = req.ncore;
  serve::PeekQuery q;
  q.key = driver::ScheduleCache::key(loop, mach, cfg, "tms");
  q.expect_instrs = loop.num_instrs();
  std::optional<driver::ScheduleCache::Entry> entry;
  ASSERT_FALSE(client.peek(q, entry).has_value());
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->ii, ok->ii);
  EXPECT_EQ(entry->slots, ok->slots);

  // Unknown key: well-formed miss.
  q.key ^= 0xdeadbeefull;
  entry.reset();
  ASSERT_FALSE(client.peek(q, entry).has_value());
  EXPECT_FALSE(entry.has_value());

  client.close();
  server.drain();
  service.shutdown();
}

// ---- LocalCluster end to end ---------------------------------------------

TEST_F(RouterSocketTest, ClusterServesVerifiedSchedules) {
  const machine::MachineModel mach;
  router::LocalClusterOptions opts;
  opts.backends = 2;
  opts.dir = dir_;
  router::LocalCluster lc(mach, opts);
  ASSERT_FALSE(lc.start().has_value());

  serve::Client client;
  ASSERT_FALSE(client.connect_unix(lc.router_socket()).has_value());
  const machine::SpmtConfig cfg;
  std::uint64_t id = 0;
  for (workloads::Kernel& k : workloads::classic_kernels()) {
    serve::Request req;
    req.id = ++id;
    req.request_id = "rt-" + std::to_string(id);
    req.scheduler = "tms";
    req.loop = k.loop;
    const auto resp = client.compile(req);
    const auto* ok = std::get_if<serve::Response>(&resp);
    ASSERT_NE(ok, nullptr) << std::get<std::string>(resp);
    ASSERT_TRUE(ok->ok) << ok->message;
    // The id survives the extra hop verbatim.
    EXPECT_EQ(ok->request_id, req.request_id);
    // Deterministic schedulers: the routed answer equals a local run.
    const auto local = sched::tms_schedule(k.loop, mach, cfg);
    ASSERT_TRUE(local.has_value());
    EXPECT_EQ(ok->ii, local->schedule.ii());
    for (int v = 0; v < k.loop.num_instrs(); ++v) {
      EXPECT_EQ(ok->slots[static_cast<std::size_t>(v)], local->schedule.slot(v));
    }
  }
  client.close();
  lc.stop();
}

TEST_F(RouterSocketTest, PeerFillServesWarmSiblingEntry) {
  const machine::MachineModel mach;
  router::LocalClusterOptions opts;
  opts.backends = 2;
  opts.dir = dir_;
  opts.peer_fill = true;
  router::LocalCluster lc(mach, opts);
  ASSERT_FALSE(lc.start().has_value());

  std::vector<workloads::Kernel> kernels = workloads::classic_kernels();
  const std::uint64_t hits_before = obs::counters().serve_peer_fill_hits.value();

  // Warm shard 0 directly, then ask shard 1 directly for the same loop:
  // shard 1 misses its own cache and must fill from its sibling.
  for (int shard = 0; shard < 2; ++shard) {
    serve::Client client;
    ASSERT_FALSE(client.connect_unix(lc.backend_socket(shard)).has_value());
    serve::Request req;
    req.id = static_cast<std::uint64_t>(shard) + 1;
    req.scheduler = "tms";
    req.loop = kernels.front().loop;
    const auto resp = client.compile(req);
    const auto* ok = std::get_if<serve::Response>(&resp);
    ASSERT_NE(ok, nullptr);
    ASSERT_TRUE(ok->ok);
    if (shard == 1) {
      // Served from the sibling's cache: flagged as a hit even though
      // this shard had never seen the loop.
      EXPECT_TRUE(ok->cache_hit);
    }
    client.close();
  }
  EXPECT_GT(obs::counters().serve_peer_fill_hits.value(), hits_before);
  lc.stop();
}

TEST_F(RouterSocketTest, PolicyAndBusFieldsAreInTheRoutingKey) {
  // The router keys a request by everything it spells out, policy and
  // bus terms included, so it lands on the shard whose cache stores it.
  const machine::MachineModel mach;
  router::LocalClusterOptions opts;
  opts.backends = 4;
  opts.dir = dir_;
  opts.peer_fill = false;
  router::LocalCluster lc(mach, opts);
  ASSERT_FALSE(lc.start().has_value());

  // A request whose full key and ncore-only key pick different primaries
  // tells the two keys apart.
  std::optional<serve::Request> probe;
  std::uint64_t key = 0;
  for (workloads::Kernel& k : workloads::classic_kernels()) {
    for (const int bus_bytes : {0, 8, 16}) {
      serve::Request req;
      req.scheduler = "tms";
      req.policy = machine::AllocPolicy::kLocality;
      req.policy_block = 2;
      req.bus_bytes_per_transfer = bus_bytes;
      req.loop = k.loop;
      machine::SpmtConfig ncore_only;
      ncore_only.ncore = req.ncore;
      key = driver::ScheduleCache::key(req.loop, mach, serve::request_config(req), "tms");
      const std::uint64_t bare = driver::ScheduleCache::key(req.loop, mach, ncore_only, "tms");
      if (lc.router().ring().primary(key) != lc.router().ring().primary(bare)) {
        probe = std::move(req);
        break;
      }
    }
    if (probe.has_value()) break;
  }
  ASSERT_TRUE(probe.has_value());

  serve::Client client;
  ASSERT_FALSE(client.connect_unix(lc.router_socket()).has_value());
  const auto resp = client.compile(*probe);
  const auto* ok = std::get_if<serve::Response>(&resp);
  ASSERT_NE(ok, nullptr);
  ASSERT_TRUE(ok->ok) << ok->message;
  const std::string primary = lc.router().ring().primary(key);
  for (int i = 0; i < lc.backends(); ++i) {
    EXPECT_EQ(lc.cache(i)->lookup(key, probe->loop.num_instrs()).has_value(),
              lc.backend_socket(i) == primary)
        << "only the key's primary shard compiled and cached the request";
  }
  client.close();
  lc.stop();
}

// ---- aggregate cache capacity --------------------------------------------

/// Cache hits on the second of two passes, by one client through a
/// LocalCluster of `backends` shards, over a cyclic working set of
/// `working_set` distinct loops. Each shard's ScheduleCache holds
/// `capacity` entries (LRU, split over 16 internal shards). Peer fill is
/// off, so a hit can only come from the shard the ring routed the key to.
/// The sockets live in the fixed directory `dir`: the ring hashes backend
/// addresses, so a fixed path fixes which shard owns which key. The
/// requests ask for SMS, which keeps a miss cheap; the cache and the ring
/// treat every scheduler alike.
int second_pass_hits(const std::string& dir, int backends, int working_set,
                     std::size_t capacity) {
  const machine::MachineModel mach;
  fs::remove_all(dir);
  fs::create_directories(dir);
  router::LocalClusterOptions opts;
  opts.backends = backends;
  opts.cache_capacity = capacity;
  opts.peer_fill = false;
  opts.dir = dir;
  router::LocalCluster lc(mach, opts);
  EXPECT_FALSE(lc.start().has_value());

  serve::Client client;
  EXPECT_FALSE(client.connect_unix(lc.router_socket()).has_value());
  ir::Loop loop = test::tiny_recurrence();
  int hits = 0;
  std::uint64_t id = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < working_set; ++i) {
      loop.set_name("ws" + std::to_string(i));  // the name is part of the cache key
      serve::Request req;
      req.id = ++id;
      req.scheduler = "sms";
      req.loop = loop;
      const auto resp = client.compile(req);
      const auto* ok = std::get_if<serve::Response>(&resp);
      EXPECT_TRUE(ok != nullptr && ok->ok) << "request " << id;
      if (ok != nullptr && ok->cache_hit) {
        EXPECT_EQ(pass, 1) << "a first-pass hit on a cold cluster";
        ++hits;
      }
    }
  }
  client.close();
  lc.stop();
  fs::remove_all(dir);
  return hits;
}

TEST(RouterCapacity, TwoShardsHoldAWorkingSetThatThrashesOne) {
  // 512 loops against 192 entries a shard (12 per internal LRU shard):
  // one shard sees ~32 keys per internal shard (none as few as 12) and
  // evicts each before the cycle comes back to it; two shards see ~16
  // each, and the internal shards left with at most 12 keep theirs.
  constexpr int kWorkingSet = 512;
  constexpr std::size_t kCapacity = 192;
  // The two clusters run side by side, each with its own client and
  // directory, so each still sees one fixed request order, and the test
  // waits out one teardown (a drain per socket server) instead of two.
  auto one = std::async(std::launch::async, second_pass_hits, "router_test.capacity1", 1,
                        kWorkingSet, kCapacity);
  auto two = std::async(std::launch::async, second_pass_hits, "router_test.capacity2", 2,
                        kWorkingSet, kCapacity);
  EXPECT_EQ(one.get(), 0);
  EXPECT_GT(two.get(), 0);
}

// ---- ejection ------------------------------------------------------------

TEST_F(RouterSocketTest, EjectionRoutesAroundDeadBackend) {
  const machine::MachineModel mach;

  // One real backend, one address nobody listens on.
  serve::CompileService service(mach, nullptr, serve::ServiceOptions{});
  serve::ServerOptions sopts;
  sopts.unix_path = dir_ + "/alive.sock";
  serve::SocketServer server(service, sopts);
  ASSERT_FALSE(server.start().has_value());

  router::RouterOptions ropts;
  ropts.backends = {sopts.unix_path, dir_ + "/dead.sock"};
  ropts.probe_interval_ms = 0;  // probe on demand only
  ropts.probe_timeout_ms = 200;
  ropts.eject_after = 2;
  ropts.retries = 1;
  ropts.hedges = 1;
  router::Router router(mach, ropts);
  ASSERT_FALSE(router.start().has_value());
  router.probe_now();  // second consecutive failure ejects the dead one
  EXPECT_EQ(router.healthy_count(), 1u);

  // Every kernel must be answered, including those whose ring owner is
  // the dead backend — they hedge to the survivor.
  std::uint64_t id = 0;
  for (workloads::Kernel& k : workloads::classic_kernels()) {
    serve::Request req;
    req.id = ++id;
    req.scheduler = "tms";
    req.loop = k.loop;
    const serve::Response resp = router.handle(req, "test");
    EXPECT_TRUE(resp.ok) << resp.message;
  }

  bool saw_dead = false;
  for (const auto& b : router.backends_snapshot()) {
    if (b.address == ropts.backends[1]) {
      saw_dead = true;
      EXPECT_FALSE(b.healthy);
    } else {
      EXPECT_TRUE(b.healthy);
    }
  }
  EXPECT_TRUE(saw_dead);

  router.begin_drain();
  router.stop();
  server.drain();
  service.shutdown();
}

// ---- CLUSTER_STATS aggregation -------------------------------------------

TEST_F(RouterSocketTest, ClusterStatsAggregateIsTheExactSumOfItsShards) {
  const machine::MachineModel mach;
  router::LocalClusterOptions opts;
  opts.backends = 2;
  opts.dir = dir_;
  router::LocalCluster lc(mach, opts);
  ASSERT_FALSE(lc.start().has_value());

  // Put some traffic through so counters and latency buckets are
  // non-trivial before the snapshot.
  serve::Client client;
  ASSERT_FALSE(client.connect_unix(lc.router_socket()).has_value());
  std::uint64_t id = 0;
  for (workloads::Kernel& k : workloads::classic_kernels()) {
    serve::Request req;
    req.id = ++id;
    req.scheduler = "tms";
    req.loop = k.loop;
    const auto resp = client.compile(req);
    const auto* ok = std::get_if<serve::Response>(&resp);
    ASSERT_NE(ok, nullptr) << std::get<std::string>(resp);
    ASSERT_TRUE(ok->ok) << ok->message;
  }

  std::string payload;
  ASSERT_FALSE(client.cluster_stats(payload).has_value());
  const auto parsed = support::parse_json(payload);
  const auto* v = std::get_if<support::JsonValue>(&parsed);
  ASSERT_NE(v, nullptr) << std::get<std::string>(parsed);
  ASSERT_NE(v->find("schema"), nullptr);
  EXPECT_EQ(v->find("schema")->as_string(), "cluster-stats-v1");
  EXPECT_EQ(v->find("source")->as_string(), "tmsrouter");
  EXPECT_EQ(v->find("shards_total")->as_number(), 2.0);
  EXPECT_EQ(v->find("shards_ok")->as_number(), 2.0);

  // The acceptance contract: the aggregate equals the bucket-wise sum
  // of the per-shard registries carried in the same reply — counters,
  // every histogram bucket, and the exact sums.
  const auto* shards = v->find("shards");
  ASSERT_NE(shards, nullptr);
  obs::CountersSnapshot sum;
  std::size_t shards_seen = 0;
  for (const auto& shard : shards->items()) {
    ASSERT_NE(shard.find("ok"), nullptr);
    ASSERT_TRUE(shard.find("ok")->as_bool());
    const auto* observability = shard.find_path("stats.observability");
    ASSERT_NE(observability, nullptr);
    obs::snapshot_accumulate(sum, obs::snapshot_from_json(*observability));
    ++shards_seen;
  }
  EXPECT_EQ(shards_seen, 2u);
  const auto* aggregate = v->find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  const obs::CountersSnapshot agg = obs::snapshot_from_json(*aggregate);
  EXPECT_EQ(agg.counters, sum.counters);
  EXPECT_EQ(agg.histograms, sum.histograms);
  EXPECT_EQ(agg.histogram_sums, sum.histogram_sums);
  EXPECT_EQ(agg.time_histograms, sum.time_histograms);
  EXPECT_EQ(agg.time_histogram_sums_us, sum.time_histogram_sums_us);
  EXPECT_GE(agg.value("serve.requests"), static_cast<std::uint64_t>(id))
      << "the traffic above must be visible in the aggregate";

  client.close();
  lc.stop();
}

TEST_F(RouterSocketTest, ClusterStatsAnswersWhileDrainingAndReportsDeadShards) {
  const machine::MachineModel mach;

  serve::CompileService service(mach, nullptr, serve::ServiceOptions{});
  serve::ServerOptions sopts;
  sopts.unix_path = dir_ + "/alive.sock";
  serve::SocketServer server(service, sopts);
  ASSERT_FALSE(server.start().has_value());

  router::RouterOptions ropts;
  ropts.backends = {sopts.unix_path, dir_ + "/dead.sock"};
  ropts.probe_interval_ms = 0;
  ropts.probe_timeout_ms = 200;
  ropts.eject_after = 2;
  router::Router router(mach, ropts);
  ASSERT_FALSE(router.start().has_value());
  router.probe_now();
  EXPECT_EQ(router.healthy_count(), 1u);

  serve::ServerOptions rsopts;
  rsopts.unix_path = dir_ + "/router.sock";
  serve::SocketServer rserver(router, rsopts);
  ASSERT_FALSE(rserver.start().has_value());

  serve::Client client;
  ASSERT_FALSE(client.connect_unix(rsopts.unix_path).has_value());
  router.begin_drain();

  // Compiles are refused mid-drain; CLUSTER_STATS is a side channel and
  // must keep answering, with the ejected shard reported ok:false.
  serve::Request req;
  req.id = 1;
  req.scheduler = "tms";
  req.loop = workloads::classic_kernels().front().loop;
  const auto refused = client.compile(req);
  const auto* r = std::get_if<serve::Response>(&refused);
  ASSERT_NE(r, nullptr);
  EXPECT_FALSE(r->ok);
  EXPECT_EQ(r->code, serve::ErrorCode::kShutdown);

  std::string payload;
  ASSERT_FALSE(client.cluster_stats(payload).has_value());
  const auto parsed = support::parse_json(payload);
  const auto* v = std::get_if<support::JsonValue>(&parsed);
  ASSERT_NE(v, nullptr) << std::get<std::string>(parsed);
  EXPECT_TRUE(v->find("draining")->as_bool());
  EXPECT_EQ(v->find("shards_total")->as_number(), 2.0);
  EXPECT_EQ(v->find("shards_ok")->as_number(), 1.0);
  bool saw_dead = false;
  for (const auto& shard : v->find("shards")->items()) {
    if (shard.find("address")->as_string() == ropts.backends[1]) {
      saw_dead = true;
      EXPECT_FALSE(shard.find("ok")->as_bool());
      EXPECT_FALSE(shard.find("healthy")->as_bool());
      EXPECT_NE(shard.find("error"), nullptr);
    }
  }
  EXPECT_TRUE(saw_dead);

  client.close();
  rserver.drain();
  router.stop();
  server.drain();
  service.shutdown();
}

// ---- distributed tracing across the router hop ---------------------------

TEST_F(RouterSocketTest, HedgedPeerFilledRequestYieldsOneStitchedTrace) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with TMS_TRACE=0";
  const machine::MachineModel mach;
  router::LocalClusterOptions opts;
  opts.backends = 2;
  opts.dir = dir_;
  opts.peer_fill = true;
  router::LocalCluster lc(mach, opts);
  ASSERT_FALSE(lc.start().has_value());

  serve::Client client;
  ASSERT_FALSE(client.connect_unix(lc.router_socket()).has_value());

  // Warm the ring owner via the router, then identify it by its
  // forwarded count.
  serve::Request req;
  req.id = 1;
  req.scheduler = "tms";
  req.loop = workloads::classic_kernels().front().loop;
  {
    const auto resp = client.compile(req);
    const auto* ok = std::get_if<serve::Response>(&resp);
    ASSERT_NE(ok, nullptr);
    ASSERT_TRUE(ok->ok) << ok->message;
  }
  int owner = -1;
  for (const auto& b : lc.router().backends_snapshot()) {
    if (b.forwarded != 1) continue;
    for (int i = 0; i < lc.backends(); ++i) {
      if (lc.backend_socket(i) == b.address) owner = i;
    }
  }
  ASSERT_GE(owner, 0);

  // Drain the owner: the repeat request is answered kShutdown there,
  // hedges to the replica, misses its cold cache, and peer-fills the
  // PEEK side channel the draining owner still serves.
  lc.service(owner).begin_drain();
  obs::trace_enable(1 << 12);
  req.id = 2;
  req.trace_id = obs::mint_id();
  const auto resp = client.compile(req);
  const auto* ok = std::get_if<serve::Response>(&resp);
  ASSERT_NE(ok, nullptr);
  ASSERT_TRUE(ok->ok) << ok->message;
  EXPECT_TRUE(ok->cache_hit) << "the replica must have peer-filled from the owner";
  EXPECT_EQ(ok->trace_id, req.trace_id) << "traced clients get their id echoed";
  client.close();
  lc.stop();

  // One buffer holds the whole path. Walk the spans of this trace:
  // router.request roots it, the hedge adds a second forward leg, and
  // the replica's serve.request hangs under one of the legs with its
  // peer-fill span inside.
  const std::vector<obs::TraceEvent> evs = obs::trace_snapshot();
  obs::trace_disable();
  std::vector<obs::TraceEvent> mine;
  for (const obs::TraceEvent& e : evs) {
    if (e.trace_id == req.trace_id) mine.push_back(e);
  }
  std::set<std::uint64_t> forward_spans;
  std::uint64_t root_span = 0;
  bool saw_hedge_leg = false;
  bool saw_peer_fill = false;
  std::uint64_t serve_parent = 0;
  for (const obs::TraceEvent& e : mine) {
    const std::string name = e.name;
    if (name == "router.request") root_span = e.span_id;
    if (name == "router.forward") {
      forward_spans.insert(e.span_id);
      for (int a = 0; a < e.nargs; ++a) {
        if (std::string_view(e.args[a].key) == "hedge" && e.args[a].i == 1) {
          saw_hedge_leg = true;
        }
      }
    }
    if (name == "serve.request") serve_parent = e.parent_span_id;
    if (name == "serve.peer_fill") saw_peer_fill = true;
  }
  EXPECT_NE(root_span, 0u) << "router must root the trace";
  EXPECT_GE(forward_spans.size(), 2u) << "owner leg + hedge leg";
  EXPECT_TRUE(saw_hedge_leg);
  EXPECT_TRUE(saw_peer_fill) << "the replica's peer-fill span joins the same trace";
  EXPECT_TRUE(forward_spans.count(serve_parent))
      << "the backend's serve.request span must hang under a forward leg";
}

}  // namespace
}  // namespace tms
