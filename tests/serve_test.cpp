// Unit and integration tests for the compile service (src/serve): frame
// parsing (every header error, poison persistence), strict message
// round-trips, CompileService semantics (cache sharing, admission
// control, deadlines, drain), and SocketServer end-to-end behaviour over
// a real Unix-domain socket (ping, compile, malformed-frame drop,
// bad-payload tolerance, connection-limit turn-away, idle timeout,
// drain). Deterministic overload/deadline scenarios are built by parking
// the service's single worker on a promise via the pool() test hook.
#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "driver/schedule_cache.hpp"
#include "ir/textio.hpp"
#include "machine/machine.hpp"
#include "obs/counters.hpp"
#include "sched/tms.hpp"
#include "serve/client.hpp"
#include "serve/frame.hpp"
#include "serve/message.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/json_parse.hpp"
#include "test_util.hpp"

namespace tms {
namespace {

namespace fs = std::filesystem;
using serve::Frame;
using serve::FrameError;
using serve::FrameReader;
using serve::FrameType;

/// Scratch directory in the test cwd; short enough for sun_path.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) : path_("serve_test_" + tag) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  std::string socket_path() const { return path_ + "/s"; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ------------------------------------------------------------ raw sockets
//
// The Client class only speaks the protocol correctly; the server's
// hostile-input paths need a socket we can write garbage to.

int raw_connect(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof addr.sun_path, "%s", path.c_str());
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool raw_send(int fd, std::string_view bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads until `reader` yields a complete frame. False on EOF, reader
/// error, or timeout.
bool raw_read_frame(int fd, FrameReader& reader, Frame& out, int timeout_ms = 10000) {
  while (true) {
    switch (reader.next(out)) {
      case FrameReader::Next::kFrame: return true;
      case FrameReader::Next::kError: return false;
      case FrameReader::Next::kNeedMore: break;
    }
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, timeout_ms) <= 0) return false;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n <= 0) return false;
    reader.feed({buf, static_cast<std::size_t>(n)});
  }
}

/// True when the peer closes the connection within the timeout.
bool raw_read_eof(int fd, int timeout_ms) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    pollfd p{fd, POLLIN, 0};
    if (::poll(&p, 1, 200) <= 0) continue;
    char buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n == 0) return true;
    if (n < 0) return false;
    // Discard any late bytes (e.g. an error response before the close).
  }
  return false;
}

serve::Request chain_request(std::uint64_t id = 1) {
  serve::Request req;
  req.id = id;
  req.scheduler = "tms";
  req.ncore = 4;
  req.loop = test::tiny_chain();
  return req;
}

/// Rebuilds and validates the schedule a response describes, exactly as
/// tmsq/tmsc --remote do.
void expect_valid_remote_schedule(const serve::Response& resp, const ir::Loop& loop,
                                  const machine::MachineModel& mach) {
  ASSERT_TRUE(resp.ok) << "[" << serve::to_string(resp.code) << "] " << resp.message;
  ASSERT_EQ(resp.slots.size(), static_cast<std::size_t>(loop.num_instrs()));
  sched::Schedule s(loop, mach, resp.ii);
  for (int v = 0; v < loop.num_instrs(); ++v) {
    s.set_slot(v, resp.slots[static_cast<std::size_t>(v)]);
  }
  EXPECT_FALSE(s.validate().has_value()) << *s.validate();
}

// ------------------------------------------------------------------ Frame

TEST(Frame, EncodeDecodeRoundTripAcrossTypesAndSizes) {
  const std::string big(100000, 'x');
  const std::vector<std::pair<FrameType, std::string>> cases = {
      {FrameType::kRequest, ""},
      {FrameType::kResponse, "payload"},
      {FrameType::kPing, ""},
      {FrameType::kPong, big},
  };
  FrameReader reader;
  std::string wire;
  for (const auto& [type, payload] : cases) wire += serve::encode_frame(type, payload);

  // Feed in uneven chunks to exercise incremental reassembly.
  for (std::size_t off = 0; off < wire.size();) {
    const std::size_t n = std::min<std::size_t>(1 + off % 4096, wire.size() - off);
    reader.feed(std::string_view(wire).substr(off, n));
    off += n;
  }
  for (const auto& [type, payload] : cases) {
    Frame f;
    ASSERT_EQ(reader.next(f), FrameReader::Next::kFrame);
    EXPECT_EQ(f.type, type);
    EXPECT_EQ(f.payload, payload);
  }
  Frame f;
  EXPECT_EQ(reader.next(f), FrameReader::Next::kNeedMore);
  EXPECT_EQ(reader.pending_bytes(), 0u);
}

TEST(Frame, PartialHeaderNeedsMore) {
  FrameReader reader;
  const std::string wire = serve::encode_frame(FrameType::kPing, "");
  reader.feed(std::string_view(wire).substr(0, serve::kFrameHeaderSize - 1));
  Frame f;
  EXPECT_EQ(reader.next(f), FrameReader::Next::kNeedMore);
  EXPECT_EQ(reader.pending_bytes(), serve::kFrameHeaderSize - 1);
  reader.feed(std::string_view(wire).substr(serve::kFrameHeaderSize - 1));
  EXPECT_EQ(reader.next(f), FrameReader::Next::kFrame);
  EXPECT_EQ(f.type, FrameType::kPing);
}

TEST(Frame, EveryHeaderFieldIsValidated) {
  struct Case {
    const char* name;
    std::size_t offset;
    char byte;
    FrameError expect;
  };
  // encode a valid frame, then corrupt exactly one header field.
  const std::vector<Case> cases = {
      {"magic", 0, 'X', FrameError::kBadMagic},
      {"version", 4, 9, FrameError::kBadVersion},
      {"type", 5, 99, FrameError::kBadType},
      {"flags", 6, 1, FrameError::kBadFlags},
  };
  for (const Case& c : cases) {
    std::string wire = serve::encode_frame(FrameType::kRequest, "hello");
    wire[c.offset] = c.byte;
    FrameReader reader;
    reader.feed(wire);
    Frame f;
    EXPECT_EQ(reader.next(f), FrameReader::Next::kError) << c.name;
    EXPECT_EQ(reader.error(), c.expect) << c.name;
  }
}

TEST(Frame, OversizePayloadIsRejectedByTheCap) {
  FrameReader reader(16);  // tiny cap
  reader.feed(serve::encode_frame(FrameType::kRequest, std::string(17, 'a')));
  Frame f;
  EXPECT_EQ(reader.next(f), FrameReader::Next::kError);
  EXPECT_EQ(reader.error(), FrameError::kOversize);
  // Exactly at the cap is fine.
  FrameReader ok(16);
  ok.feed(serve::encode_frame(FrameType::kRequest, std::string(16, 'a')));
  EXPECT_EQ(ok.next(f), FrameReader::Next::kFrame);
}

TEST(Frame, ErrorPoisonsTheReaderPermanently) {
  FrameReader reader;
  std::string bad = serve::encode_frame(FrameType::kPing, "");
  bad[0] = '?';
  reader.feed(bad);
  Frame f;
  ASSERT_EQ(reader.next(f), FrameReader::Next::kError);
  // A perfectly good frame after the poison must not resurrect it.
  reader.feed(serve::encode_frame(FrameType::kPing, ""));
  EXPECT_EQ(reader.next(f), FrameReader::Next::kError);
  EXPECT_EQ(reader.error(), FrameError::kBadMagic);
}

// ---------------------------------------------------------------- Message

TEST(Message, RequestRoundTripPreservesEveryField) {
  serve::Request req;
  req.id = 0xDEADBEEFULL;
  req.scheduler = "sms";
  req.ncore = 7;
  req.deadline_ms = 1234;
  req.loop = test::tiny_recurrence();

  const auto parsed = serve::parse_request(serve::serialise_request(req));
  const auto* out = std::get_if<serve::Request>(&parsed);
  ASSERT_NE(out, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(out->id, req.id);
  EXPECT_EQ(out->scheduler, req.scheduler);
  EXPECT_EQ(out->ncore, req.ncore);
  EXPECT_EQ(out->deadline_ms, req.deadline_ms);
  EXPECT_EQ(ir::serialise_loop(out->loop), ir::serialise_loop(req.loop));
}

TEST(Message, RequestParserIsStrict) {
  const std::string good = serve::serialise_request(chain_request());
  const std::vector<std::string> bad = {
      "",                                       // empty
      "bogus v1\n",                             // wrong banner
      "tmsq-request v2\n",                      // wrong version
      "tmsq-request v1\nwibble 3\n",            // unknown key
      "tmsq-request v1\nid 1\n",                // missing loop
      "tmsq-request v1\nid notanumber\nloop\nloop l\ninstr a iadd\n",
      good + "trailing garbage\n",              // bytes after the loop text
  };
  for (const std::string& payload : bad) {
    const auto parsed = serve::parse_request(payload);
    EXPECT_NE(std::get_if<std::string>(&parsed), nullptr)
        << "must reject: " << payload.substr(0, 40);
  }
  const auto ok = serve::parse_request(good);
  EXPECT_NE(std::get_if<serve::Request>(&ok), nullptr);
}

TEST(Message, ResponseOkRoundTrip) {
  serve::Response resp;
  resp.id = 42;
  resp.ok = true;
  resp.scheduler = "tms";
  resp.cache_hit = true;
  resp.ii = 6;
  resp.mii = 5;
  resp.c_delay_threshold = 3;
  resp.p_max = 0.125;
  resp.slots = {0, 2, 5, 7};
  resp.server_ms = 1.5;

  const auto parsed = serve::parse_response(serve::serialise_response(resp));
  const auto* out = std::get_if<serve::Response>(&parsed);
  ASSERT_NE(out, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(out->id, 42u);
  EXPECT_TRUE(out->ok);
  EXPECT_EQ(out->scheduler, "tms");
  EXPECT_TRUE(out->cache_hit);
  EXPECT_EQ(out->ii, 6);
  EXPECT_EQ(out->mii, 5);
  EXPECT_EQ(out->c_delay_threshold, 3);
  EXPECT_DOUBLE_EQ(out->p_max, 0.125);
  EXPECT_EQ(out->slots, (std::vector<int>{0, 2, 5, 7}));
  EXPECT_DOUBLE_EQ(out->server_ms, 1.5);
}

TEST(Message, ResponseErrorRoundTripFoldsNewlines) {
  serve::Response resp =
      serve::make_error(7, serve::ErrorCode::kOverload, "queue full\nsecond line", 250);
  const auto parsed = serve::parse_response(serve::serialise_response(resp));
  const auto* out = std::get_if<serve::Response>(&parsed);
  ASSERT_NE(out, nullptr) << std::get<std::string>(parsed);
  EXPECT_FALSE(out->ok);
  EXPECT_EQ(out->id, 7u);
  EXPECT_EQ(out->code, serve::ErrorCode::kOverload);
  EXPECT_EQ(out->retry_after_ms, 250);
  EXPECT_EQ(out->message.find('\n'), std::string::npos)
      << "multi-line messages must fold to one line";
  EXPECT_NE(out->message.find("queue full"), std::string::npos);
}

TEST(Message, ResponseParserIsStrict) {
  const std::vector<std::string> bad = {
      "",
      "tmsq-response v1\n",                            // no status
      "tmsq-response v1\nstatus maybe\n",              // unknown status
      "tmsq-response v1\nstatus error\ncode wat\nmessage x\n",  // unknown code
      "tmsq-response v1\nstatus ok\nii 0\nmii 1\nslots 0\n",    // nonpositive ii
  };
  for (const std::string& payload : bad) {
    const auto parsed = serve::parse_response(payload);
    EXPECT_NE(std::get_if<std::string>(&parsed), nullptr)
        << "must reject: " << payload.substr(0, 50);
  }
}

TEST(Message, ErrorCodeStringsRoundTrip) {
  using serve::ErrorCode;
  for (const ErrorCode c :
       {ErrorCode::kParse, ErrorCode::kBadRequest, ErrorCode::kScheduleFail,
        ErrorCode::kValidateFail, ErrorCode::kDeadline, ErrorCode::kOverload,
        ErrorCode::kShutdown, ErrorCode::kInternal}) {
    ErrorCode back = ErrorCode::kParse;
    ASSERT_TRUE(serve::error_code_from_string(serve::to_string(c), back));
    EXPECT_EQ(back, c);
  }
  ErrorCode out;
  EXPECT_FALSE(serve::error_code_from_string("nonsense", out));
}

// ---------------------------------------------------------------- Service

TEST(Service, CompileMatchesTheLocalScheduler) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 2;
  serve::CompileService svc(mach, nullptr, opts);

  const serve::Request req = chain_request();
  const serve::Response resp = svc.handle(req);
  expect_valid_remote_schedule(resp, req.loop, mach);
  EXPECT_EQ(resp.id, req.id);
  EXPECT_EQ(resp.scheduler, "tms");
  EXPECT_FALSE(resp.cache_hit) << "no cache attached";

  machine::SpmtConfig cfg;
  cfg.ncore = req.ncore;
  const auto local = sched::tms_schedule(req.loop, mach, cfg);
  ASSERT_TRUE(local.has_value());
  EXPECT_EQ(resp.ii, local->schedule.ii()) << "remote and local must agree";
  EXPECT_EQ(resp.mii, local->mii);
  svc.shutdown();
}

TEST(Service, SharedCacheTurnsTheSecondRequestIntoAHit) {
  machine::MachineModel mach;
  driver::ScheduleCache cache(64);
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, &cache, opts);

  const serve::Request req = chain_request();
  const serve::Response first = svc.handle(req);
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_FALSE(first.cache_hit);

  const serve::Response second = svc.handle(req);
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.ii, first.ii);
  EXPECT_EQ(second.slots, first.slots);
  EXPECT_GE(cache.stats().hits(), 1u);
  svc.shutdown();
}

/// A cache entry for `loop` that rebuilds into a dependence-respecting
/// schedule but carries an unsatisfiable TMS acceptance threshold: only
/// the pipeline's validation of cache hits can catch it. `loop` must
/// carry a recurrence, so the schedule's C_delay is strictly positive.
driver::ScheduleCache::Entry corrupt_entry(const ir::Loop& loop,
                                           const machine::MachineModel& mach) {
  const auto fresh = sched::tms_schedule(loop, mach, machine::SpmtConfig{});
  EXPECT_TRUE(fresh.has_value());
  driver::ScheduleCache::Entry e;
  e.scheduler = "tms";
  e.ii = fresh->schedule.ii();
  e.mii = fresh->mii;
  e.c_delay_threshold = 0;
  e.p_max = 0.0;
  for (int v = 0; v < loop.num_instrs(); ++v) e.slots.push_back(fresh->schedule.slot(v));
  return e;
}

/// The checks both corrupt-hit cases share: the response is ok but not a
/// hit, the recompute overwrote the entry, and the next request hits.
void expect_corrupt_hit_recomputed(serve::CompileService& svc, driver::ScheduleCache& cache,
                                   const serve::Request& req, const machine::MachineModel& mach) {
  const std::uint64_t key =
      driver::ScheduleCache::key(req.loop, mach, serve::request_config(req), req.scheduler);
  const serve::Response first = svc.handle(req);
  expect_valid_remote_schedule(first, req.loop, mach);
  EXPECT_FALSE(first.cache_hit) << "a corrupt hit is demoted to a recompute";

  const auto entry = cache.lookup(key, req.loop.num_instrs());
  ASSERT_TRUE(entry.has_value());
  EXPECT_GT(entry->c_delay_threshold, 0) << "the recompute overwrote the corrupt entry";
  EXPECT_EQ(entry->c_delay_threshold, first.c_delay_threshold);
  EXPECT_EQ(entry->slots, first.slots);

  const serve::Response second = svc.handle(req);
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.slots, first.slots);
}

TEST(Service, CorruptLocalCacheHitIsRecomputedAndOverwritten) {
  machine::MachineModel mach;
  driver::ScheduleCache cache(64);
  serve::Request req = chain_request();
  req.loop = test::tiny_recurrence();
  cache.insert(driver::ScheduleCache::key(req.loop, mach, serve::request_config(req), "tms"),
               corrupt_entry(req.loop, mach));
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, &cache, opts);
  expect_corrupt_hit_recomputed(svc, cache, req, mach);
  svc.shutdown();
}

TEST(Service, CorruptPeerFillEntryIsRecomputedAndOverwritten) {
  machine::MachineModel mach;
  driver::ScheduleCache cache(64);
  serve::Request req = chain_request();
  req.loop = test::tiny_recurrence();
  const driver::ScheduleCache::Entry bad = corrupt_entry(req.loop, mach);
  std::atomic<int> peeks{0};
  serve::ServiceOptions opts;
  opts.threads = 1;
  opts.peer_fill = [&](std::uint64_t, int) -> std::optional<driver::ScheduleCache::Entry> {
    peeks.fetch_add(1);
    return bad;
  };
  serve::CompileService svc(mach, &cache, opts);

  const obs::CountersSnapshot before = obs::counters_snapshot();
  expect_corrupt_hit_recomputed(svc, cache, req, mach);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  EXPECT_EQ(peeks.load(), 1) << "the second request hits locally, without a PEEK";
  EXPECT_EQ(d.value("serve.peer_fill_hits"), 1u) << "the entry rebuilt, so it was a peer hit";
  svc.shutdown();
}

TEST(Service, SimVerifyAcceptsCorrectSchedulesAndRecordsLatency) {
  // --sim-verify: the response only ships after a bounded event-driven
  // simulation of the lowered kernel reproduced the sequential
  // reference. A correct schedule must pass, pay exactly one
  // quick_estimate, and land one serve.latency.sim_verify sample.
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  opts.sim_verify = true;
  opts.sim_verify_iterations = 40;
  serve::CompileService svc(mach, nullptr, opts);

  const obs::CountersSnapshot before = obs::counters_snapshot();
  const serve::Request req = chain_request();
  const serve::Response resp = svc.handle(req);
  expect_valid_remote_schedule(resp, req.loop, mach);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  EXPECT_EQ(d.value("sim.quick_estimates"), 1u);
  EXPECT_EQ(d.value("serve.sim_verify_failures"), 0u);
  EXPECT_EQ(d.time_histogram_count("serve.latency.sim_verify"), 1u);
  svc.shutdown();
}

TEST(Service, RejectsBadSchedulerAndBadNcore) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, nullptr, opts);

  serve::Request req = chain_request();
  req.scheduler = "bogus";
  EXPECT_EQ(svc.handle(req).code, serve::ErrorCode::kBadRequest);

  req = chain_request();
  req.ncore = 0;
  EXPECT_EQ(svc.handle(req).code, serve::ErrorCode::kBadRequest);

  req = chain_request();
  req.ncore = 100000;
  EXPECT_EQ(svc.handle(req).code, serve::ErrorCode::kBadRequest);

  // The wire parser checks only syntax; admission answers a policy/bus
  // knob out of range bad-request before it can reach SpmtConfig::check().
  const std::function<void(serve::Request&)> bad_knobs[] = {
      [](serve::Request& r) { r.policy_stride = 0; },
      [](serve::Request& r) { r.policy_block = 0; },
      [](serve::Request& r) { r.bus_bytes_per_transfer = -1; },
      [](serve::Request& r) { r.bus_bytes_per_cycle = 0; },
  };
  for (const auto& set_knob : bad_knobs) {
    req = chain_request();
    set_knob(req);
    const auto parsed = serve::parse_request(serve::serialise_request(req));
    const auto* wire = std::get_if<serve::Request>(&parsed);
    ASSERT_NE(wire, nullptr) << std::get<std::string>(parsed);
    EXPECT_EQ(svc.handle(*wire).code, serve::ErrorCode::kBadRequest);
  }
  svc.shutdown();
}

TEST(Service, FullQueueAnswersOverloadWithRetryHint) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  opts.queue_capacity = 1;
  opts.retry_after_ms = 77;
  serve::CompileService svc(mach, nullptr, opts);

  // Park the single worker so admissions pile into the queue.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  auto blocker = svc.pool().try_submit([&] {
    started.set_value();
    gate.wait();
  });
  ASSERT_NE(blocker, nullptr);
  started.get_future().wait();

  // This request takes the only queue slot and waits.
  serve::Response queued_resp;
  std::thread waiter([&] { queued_resp = svc.handle(chain_request(10)); });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (svc.queue_depth() < 1 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(svc.queue_depth(), 1u) << "queued request never reached the pool";

  // Queue is at capacity: the next admission is refused immediately.
  const serve::Response refused = svc.handle(chain_request(11));
  EXPECT_FALSE(refused.ok);
  EXPECT_EQ(refused.code, serve::ErrorCode::kOverload);
  EXPECT_EQ(refused.retry_after_ms, 77);

  release.set_value();
  waiter.join();
  EXPECT_TRUE(queued_resp.ok) << "the admitted request must still complete: "
                              << queued_resp.message;
  svc.shutdown();
}

TEST(Service, DeadlineExpiresWhileQueued) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  opts.queue_capacity = 4;
  serve::CompileService svc(mach, nullptr, opts);

  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::promise<void> started;
  auto blocker = svc.pool().try_submit([&] {
    started.set_value();
    gate.wait();
  });
  ASSERT_NE(blocker, nullptr);
  started.get_future().wait();

  serve::Request req = chain_request(20);
  req.deadline_ms = 50;  // expires while the blocker holds the worker
  const serve::Response resp = svc.handle(req);
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, serve::ErrorCode::kDeadline);

  release.set_value();
  svc.shutdown();
}

TEST(Service, DrainRefusesNewRequests) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, nullptr, opts);
  svc.begin_drain();
  EXPECT_TRUE(svc.draining());
  const serve::Response resp = svc.handle(chain_request());
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, serve::ErrorCode::kShutdown);
  svc.shutdown();
}

// ----------------------------------------------------------- SocketServer

struct ServerFixture {
  ScratchDir dir;
  machine::MachineModel mach;
  serve::CompileService service;
  serve::SocketServer server;

  explicit ServerFixture(serve::ServiceOptions sopts = {}, serve::ServerOptions xopts = {})
      : dir("server"),
        service(mach, nullptr, fix_threads(sopts)),
        server(service, fix_path(xopts, dir.socket_path())) {}

  ~ServerFixture() {
    server.drain();
    service.shutdown();
  }

  static serve::ServiceOptions fix_threads(serve::ServiceOptions o) {
    if (o.threads == 0) o.threads = 2;
    return o;
  }
  static serve::ServerOptions fix_path(serve::ServerOptions o, std::string path) {
    o.unix_path = std::move(path);
    return o;
  }
};

TEST(Server, PingAndCompileOverAUnixSocket) {
  ServerFixture fx;
  ASSERT_FALSE(fx.server.start().has_value());

  serve::Client client;
  ASSERT_FALSE(client.connect_unix(fx.dir.socket_path()).has_value());
  EXPECT_FALSE(client.ping().has_value());

  const serve::Request req = chain_request();
  const auto result = client.compile(req);
  const auto* resp = std::get_if<serve::Response>(&result);
  ASSERT_NE(resp, nullptr) << std::get<std::string>(result);
  expect_valid_remote_schedule(*resp, req.loop, fx.mach);

  // Same connection serves many requests.
  const auto again = client.compile(req);
  ASSERT_NE(std::get_if<serve::Response>(&again), nullptr);
}

TEST(Server, ConnectToMissingSocketFails) {
  serve::Client client;
  EXPECT_TRUE(client.connect_unix("serve_test_nonexistent/s").has_value());
}

TEST(Server, MalformedFrameGetsParseErrorThenDrop) {
  ServerFixture fx;
  ASSERT_FALSE(fx.server.start().has_value());

  const int fd = raw_connect(fx.dir.socket_path());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(raw_send(fd, "this is not a frame header, not even close"));

  FrameReader reader;
  Frame f;
  ASSERT_TRUE(raw_read_frame(fd, reader, f)) << "expected a best-effort error response";
  ASSERT_EQ(f.type, FrameType::kResponse);
  const auto parsed = serve::parse_response(f.payload);
  const auto* resp = std::get_if<serve::Response>(&parsed);
  ASSERT_NE(resp, nullptr) << std::get<std::string>(parsed);
  EXPECT_FALSE(resp->ok);
  EXPECT_EQ(resp->code, serve::ErrorCode::kParse);

  EXPECT_TRUE(raw_read_eof(fd, 10000)) << "broken framing must drop the connection";
  ::close(fd);
}

TEST(Server, WellFramedGarbagePayloadKeepsTheConnection) {
  ServerFixture fx;
  ASSERT_FALSE(fx.server.start().has_value());

  const int fd = raw_connect(fx.dir.socket_path());
  ASSERT_GE(fd, 0);
  FrameReader reader;
  Frame f;

  ASSERT_TRUE(raw_send(fd, serve::encode_frame(FrameType::kRequest, "not a request")));
  ASSERT_TRUE(raw_read_frame(fd, reader, f));
  ASSERT_EQ(f.type, FrameType::kResponse);
  const auto parsed = serve::parse_response(f.payload);
  const auto* err = std::get_if<serve::Response>(&parsed);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->code, serve::ErrorCode::kParse);

  // The framing is intact, so the connection survives and serves a
  // proper request afterwards.
  const serve::Request req = chain_request(5);
  ASSERT_TRUE(raw_send(fd, serve::encode_frame(FrameType::kRequest,
                                               serve::serialise_request(req))));
  ASSERT_TRUE(raw_read_frame(fd, reader, f));
  const auto parsed2 = serve::parse_response(f.payload);
  const auto* ok = std::get_if<serve::Response>(&parsed2);
  ASSERT_NE(ok, nullptr) << std::get<std::string>(parsed2);
  EXPECT_TRUE(ok->ok) << ok->message;
  EXPECT_EQ(ok->id, 5u);
  ::close(fd);
}

TEST(Server, OverConnectionLimitIsTurnedAwayWithOverload) {
  serve::ServerOptions sopts;
  sopts.max_connections = 1;
  ServerFixture fx({}, sopts);
  ASSERT_FALSE(fx.server.start().has_value());

  serve::Client first;
  ASSERT_FALSE(first.connect_unix(fx.dir.socket_path()).has_value());
  ASSERT_FALSE(first.ping().has_value()) << "first connection must be live";

  const int fd = raw_connect(fx.dir.socket_path());
  ASSERT_GE(fd, 0);
  FrameReader reader;
  Frame f;
  ASSERT_TRUE(raw_read_frame(fd, reader, f)) << "turn-away must be structured, not silent";
  ASSERT_EQ(f.type, FrameType::kResponse);
  const auto parsed = serve::parse_response(f.payload);
  const auto* resp = std::get_if<serve::Response>(&parsed);
  ASSERT_NE(resp, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(resp->code, serve::ErrorCode::kOverload);
  EXPECT_GT(resp->retry_after_ms, 0);
  EXPECT_TRUE(raw_read_eof(fd, 10000));
  ::close(fd);

  // The established connection is unaffected.
  EXPECT_FALSE(first.ping().has_value());
}

TEST(Server, IdleConnectionIsClosed) {
  serve::ServerOptions sopts;
  sopts.idle_timeout_ms = 250;
  ServerFixture fx({}, sopts);
  ASSERT_FALSE(fx.server.start().has_value());

  const int fd = raw_connect(fx.dir.socket_path());
  ASSERT_GE(fd, 0);
  EXPECT_TRUE(raw_read_eof(fd, 10000)) << "idle connection must be reaped";
  ::close(fd);
}

TEST(Server, DrainStopsAcceptingAndUnbindsTheSocket) {
  ServerFixture fx;
  ASSERT_FALSE(fx.server.start().has_value());
  EXPECT_TRUE(fx.server.running());

  serve::Client client;
  ASSERT_FALSE(client.connect_unix(fx.dir.socket_path()).has_value());

  fx.server.drain();
  EXPECT_FALSE(fx.server.running());
  EXPECT_EQ(fx.server.connection_count(), 0);
  EXPECT_FALSE(fs::exists(fx.dir.socket_path())) << "socket file must be unlinked";

  serve::Client late;
  EXPECT_TRUE(late.connect_unix(fx.dir.socket_path()).has_value());
  fx.server.drain();  // idempotent
}

// drain() wakes the accept thread and every idle connection thread at
// once instead of waiting for their 200 ms poll ticks to run out. Three
// rounds, because one drain can land near the end of a tick by chance.
TEST(Server, DrainWithAnIdleConnectionReturnsWellInsideOnePollTick) {
  for (int round = 0; round < 3; ++round) {
    ServerFixture fx;
    ASSERT_FALSE(fx.server.start().has_value());
    serve::Client client;
    ASSERT_FALSE(client.connect_unix(fx.dir.socket_path()).has_value());
    ASSERT_FALSE(client.ping().has_value()) << "the connection must be live and idle";

    const auto t0 = std::chrono::steady_clock::now();
    fx.server.drain();
    const auto took = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took, std::chrono::milliseconds(50)) << "round " << round;
    EXPECT_EQ(fx.server.connection_count(), 0);
    EXPECT_TRUE(client.ping().has_value()) << "the drained connection must be closed";
  }
}

// -------------------------------------------------------- Request identity

TEST(Message, RequestIdRoundTripsAndEmptyIdIsOmittedFromTheWire) {
  serve::Request req = chain_request();
  req.request_id = "client-7.a:b_c-d";
  const auto parsed = serve::parse_request(serve::serialise_request(req));
  const auto* out = std::get_if<serve::Request>(&parsed);
  ASSERT_NE(out, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(out->request_id, req.request_id);

  // An empty id serialises to no request_id line at all, which is what
  // keeps the serialise->parse->serialise fixpoint (tmsfuzz property 2).
  req.request_id.clear();
  const std::string wire = serve::serialise_request(req);
  EXPECT_EQ(wire.find("request_id"), std::string::npos);
  const auto reparsed = serve::parse_request(wire);
  const auto* out2 = std::get_if<serve::Request>(&reparsed);
  ASSERT_NE(out2, nullptr);
  EXPECT_TRUE(out2->request_id.empty());
}

TEST(Message, RequestIdCharsetAndLengthAreEnforced) {
  EXPECT_TRUE(serve::valid_request_id("a"));
  EXPECT_TRUE(serve::valid_request_id("lg-17"));
  EXPECT_TRUE(serve::valid_request_id("A.b:C_d-9"));
  EXPECT_TRUE(serve::valid_request_id(std::string(64, 'x')));
  EXPECT_FALSE(serve::valid_request_id(""));
  EXPECT_FALSE(serve::valid_request_id(std::string(65, 'x')));
  EXPECT_FALSE(serve::valid_request_id("has space"));
  EXPECT_FALSE(serve::valid_request_id("newline\n"));
  EXPECT_FALSE(serve::valid_request_id("uni\xc3\xa9"));

  const auto parsed = serve::parse_request("tmsq-request v1\nid 1\nrequest_id bad id\n");
  EXPECT_NE(std::get_if<std::string>(&parsed), nullptr)
      << "a request_id with a space must be rejected";
}

TEST(Message, ResponseCarriesRequestIdAndStageTimings) {
  serve::Response resp;
  resp.id = 9;
  resp.request_id = "rq-9";
  resp.ok = true;
  resp.scheduler = "tms";
  resp.ii = 4;
  resp.mii = 4;
  resp.slots = {0, 1};
  resp.t_queue_us = 11;
  resp.t_schedule_us = 22;
  resp.t_validate_us = 3;
  resp.t_total_us = 40;

  const auto parsed = serve::parse_response(serve::serialise_response(resp));
  const auto* out = std::get_if<serve::Response>(&parsed);
  ASSERT_NE(out, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(out->request_id, "rq-9");
  EXPECT_EQ(out->t_queue_us, 11);
  EXPECT_EQ(out->t_schedule_us, 22);
  EXPECT_EQ(out->t_validate_us, 3);
  EXPECT_EQ(out->t_total_us, 40);

  // Error responses carry the id too.
  serve::Response err = serve::make_error(3, serve::ErrorCode::kOverload, "full", 50);
  err.request_id = "rq-3";
  const auto eparsed = serve::parse_response(serve::serialise_response(err));
  const auto* eout = std::get_if<serve::Response>(&eparsed);
  ASSERT_NE(eout, nullptr) << std::get<std::string>(eparsed);
  EXPECT_EQ(eout->request_id, "rq-3");
}

TEST(Service, EchoesClientRequestIdOnOkAndErrorResponses) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, nullptr, opts);

  serve::Request req = chain_request();
  req.request_id = "mine-1";
  EXPECT_EQ(svc.handle(req).request_id, "mine-1");

  req.scheduler = "bogus";  // error path must echo the same id
  const serve::Response err = svc.handle(req);
  EXPECT_EQ(err.code, serve::ErrorCode::kBadRequest);
  EXPECT_EQ(err.request_id, "mine-1");
  svc.shutdown();
}

TEST(Service, MintsAServerRequestIdWhenTheClientSendsNone) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, nullptr, opts);

  const serve::Response a = svc.handle(chain_request(1));
  const serve::Response b = svc.handle(chain_request(2));
  EXPECT_EQ(a.request_id.rfind("srv-", 0), 0u) << a.request_id;
  EXPECT_EQ(b.request_id.rfind("srv-", 0), 0u) << b.request_id;
  EXPECT_NE(a.request_id, b.request_id) << "minted ids must be distinct";
  EXPECT_TRUE(serve::valid_request_id(a.request_id));
  svc.shutdown();
}

// ----------------------------------------------------- Per-stage latency

TEST(Service, StageTimingsAreConsistentPerResponseAndInTheHistograms) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, nullptr, opts);

  const obs::CountersSnapshot before = obs::counters_snapshot();
  constexpr int kN = 5;
  for (int i = 0; i < kN; ++i) {
    const serve::Response resp = svc.handle(chain_request(static_cast<std::uint64_t>(i + 1)));
    ASSERT_TRUE(resp.ok) << resp.message;
    EXPECT_GE(resp.t_queue_us, 0);
    EXPECT_GE(resp.t_schedule_us, 0);
    EXPECT_GE(resp.t_validate_us, 0);
    EXPECT_LE(resp.t_queue_us + resp.t_schedule_us + resp.t_validate_us, resp.t_total_us);
  }
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());

  // All four stage histograms are recorded together, exactly once per
  // request whose pipeline task ran — equal counts, and the stage sums
  // never exceed the total.
  const std::uint64_t total_n = d.time_histogram_count("serve.latency.total");
  EXPECT_EQ(total_n, static_cast<std::uint64_t>(kN));
  EXPECT_EQ(d.time_histogram_count("serve.latency.queue_wait"), total_n);
  EXPECT_EQ(d.time_histogram_count("serve.latency.schedule"), total_n);
  EXPECT_EQ(d.time_histogram_count("serve.latency.validate"), total_n);
  EXPECT_LE(d.time_histogram_sum_us("serve.latency.queue_wait") +
                d.time_histogram_sum_us("serve.latency.schedule") +
                d.time_histogram_sum_us("serve.latency.validate"),
            d.time_histogram_sum_us("serve.latency.total"));
  svc.shutdown();
}

TEST(Service, RefusedRequestsRecordNoStageTimings) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, nullptr, opts);
  svc.begin_drain();

  const obs::CountersSnapshot before = obs::counters_snapshot();
  const serve::Response resp = svc.handle(chain_request());
  EXPECT_EQ(resp.code, serve::ErrorCode::kShutdown);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  EXPECT_EQ(d.time_histogram_count("serve.latency.total"), 0u)
      << "a drain-refused request never reached the pipeline";
  svc.shutdown();
}

// ------------------------------------------------------------- Slow log

TEST(Service, SlowLogWritesOneCanonicalJsonLinePerSlowRequest) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  opts.slow_ms = 0;  // everything is "slow"
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  opts.slow_log = sink;
  serve::CompileService svc(mach, nullptr, opts);

  const obs::CountersSnapshot before = obs::counters_snapshot();
  serve::Request req = chain_request();
  req.request_id = "slow-1";
  ASSERT_TRUE(svc.handle(req, "test-peer").ok);
  serve::Request bad = chain_request(2);
  bad.request_id = "slow-2";
  bad.scheduler = "bogus";
  EXPECT_FALSE(svc.handle(bad, "test-peer").ok);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  EXPECT_EQ(d.value("serve.slow_requests"), 2u);
  svc.shutdown();

  std::rewind(sink);
  char buf[4096];
  std::vector<std::string> lines;
  while (std::fgets(buf, sizeof buf, sink) != nullptr) lines.emplace_back(buf);
  std::fclose(sink);
  ASSERT_EQ(lines.size(), 2u);

  auto parsed = support::parse_json(lines[0]);
  const auto* line = std::get_if<support::JsonValue>(&parsed);
  ASSERT_NE(line, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(line->find("schema")->as_string(), "tmsd-slow-v1");
  EXPECT_EQ(line->find("request_id")->as_string(), "slow-1");
  EXPECT_EQ(line->find("peer")->as_string(), "test-peer");
  EXPECT_EQ(line->find("outcome")->as_string(), "ok");
  EXPECT_GE(line->find("total_us")->as_number(), 0.0);

  auto parsed2 = support::parse_json(lines[1]);
  const auto* line2 = std::get_if<support::JsonValue>(&parsed2);
  ASSERT_NE(line2, nullptr) << std::get<std::string>(parsed2);
  EXPECT_EQ(line2->find("request_id")->as_string(), "slow-2");
  EXPECT_EQ(line2->find("outcome")->as_string(), "bad-request");
}

TEST(Service, SlowThresholdFiltersFastRequests) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  opts.slow_ms = 60000;  // a minute: nothing in this test qualifies
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  opts.slow_log = sink;
  serve::CompileService svc(mach, nullptr, opts);

  const obs::CountersSnapshot before = obs::counters_snapshot();
  ASSERT_TRUE(svc.handle(chain_request()).ok);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  EXPECT_EQ(d.value("serve.slow_requests"), 0u);
  svc.shutdown();
  std::rewind(sink);
  char buf[16];
  EXPECT_EQ(std::fgets(buf, sizeof buf, sink), nullptr) << "no line may be written";
  std::fclose(sink);
}

// --------------------------------------------------------- STATS / HEALTH

TEST(Service, StatsJsonIsCanonicalAndHealthLineTracksDrain) {
  machine::MachineModel mach;
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, nullptr, opts);
  ASSERT_TRUE(svc.handle(chain_request()).ok);

  auto parsed = support::parse_json(svc.stats_json());
  const auto* root = std::get_if<support::JsonValue>(&parsed);
  ASSERT_NE(root, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(root->find("schema")->as_string(), "tmsd-stats-v1");
  EXPECT_GE(root->find("uptime_ms")->as_number(), 0.0);
  EXPECT_FALSE(root->find("draining")->as_bool());
  const auto* obs_obj = root->find("observability");
  ASSERT_NE(obs_obj, nullptr);
  ASSERT_TRUE(obs_obj->is_object());
  ASSERT_NE(obs_obj->find("counters"), nullptr);
  ASSERT_NE(obs_obj->find("time_histograms"), nullptr);

  EXPECT_EQ(svc.health_line().rfind("ok ", 0), 0u) << svc.health_line();
  svc.begin_drain();
  EXPECT_EQ(svc.health_line().rfind("draining ", 0), 0u) << svc.health_line();
  auto parsed2 = support::parse_json(svc.stats_json());
  const auto* root2 = std::get_if<support::JsonValue>(&parsed2);
  ASSERT_NE(root2, nullptr);
  EXPECT_TRUE(root2->find("draining")->as_bool());
  svc.shutdown();
}

TEST(Server, StatsAndHealthAnswerDuringDrainAndAreNotCompileRequests) {
  ServerFixture fx;
  ASSERT_FALSE(fx.server.start().has_value());

  serve::Client client;
  ASSERT_FALSE(client.connect_unix(fx.dir.socket_path()).has_value());
  const serve::Request req = chain_request();
  const auto warmup = client.compile(req);
  ASSERT_NE(std::get_if<serve::Response>(&warmup), nullptr);

  // Drain the *service* (what tmsd does first on SIGTERM): compile
  // requests now get kShutdown, but the side channel keeps answering on
  // the still-open connection.
  fx.service.begin_drain();

  const obs::CountersSnapshot before = obs::counters_snapshot();
  std::string stats_payload;
  ASSERT_FALSE(client.stats(stats_payload).has_value()) << "STATS must answer mid-drain";
  std::string health;
  ASSERT_FALSE(client.health(health).has_value()) << "HEALTH must answer mid-drain";
  EXPECT_EQ(health.rfind("draining ", 0), 0u) << health;
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  EXPECT_EQ(d.value("serve.requests"), 0u) << "side channel must not count as compile traffic";
  EXPECT_EQ(d.value("serve.stats_requests"), 2u);

  auto parsed = support::parse_json(stats_payload);
  const auto* root = std::get_if<support::JsonValue>(&parsed);
  ASSERT_NE(root, nullptr) << std::get<std::string>(parsed);
  EXPECT_TRUE(root->find("draining")->as_bool());

  const auto refused = client.compile(req);
  const auto* resp = std::get_if<serve::Response>(&refused);
  ASSERT_NE(resp, nullptr);
  EXPECT_EQ(resp->code, serve::ErrorCode::kShutdown);
}

TEST(Server, StatsSnapshotsAreMonotonic) {
  ServerFixture fx;
  ASSERT_FALSE(fx.server.start().has_value());
  serve::Client client;
  ASSERT_FALSE(client.connect_unix(fx.dir.socket_path()).has_value());

  const auto served_requests = [&]() -> double {
    std::string payload;
    EXPECT_FALSE(client.stats(payload).has_value());
    auto parsed = support::parse_json(payload);
    const auto* root = std::get_if<support::JsonValue>(&parsed);
    EXPECT_NE(root, nullptr);
    if (root == nullptr) return -1;
    return root->find("observability")->find("counters")->find("serve.requests")->as_number();
  };

  const double before = served_requests();
  const serve::Request req = chain_request();
  const auto compiled = client.compile(req);
  ASSERT_NE(std::get_if<serve::Response>(&compiled), nullptr);
  const double after = served_requests();
  EXPECT_GE(after, before + 1.0) << "counters in consecutive snapshots must be monotone";
}

// ---------------------------------------------------- distributed tracing

TEST(Message, UntracedRequestSerialisesByteIdenticallyToPreTraceWire) {
  // The trace fields are omit-when-default: a request that carries no
  // trace context must produce the exact bytes a pre-trace client sent,
  // so old servers parse it and content hashes over the payload agree.
  serve::Request req = chain_request();
  req.request_id = "pin-1";
  const std::string bytes = serve::serialise_request(req);
  EXPECT_EQ(bytes.find("trace_id"), std::string::npos);
  EXPECT_EQ(bytes.find("parent_span_id"), std::string::npos);

  // And adding trace context must not disturb any other line.
  serve::Request traced = req;
  traced.trace_id = 0x0123456789abcdefULL;
  traced.parent_span_id = 0xfedcba9876543210ULL;
  std::string traced_bytes = serve::serialise_request(traced);
  EXPECT_NE(traced_bytes.find("trace_id 0123456789abcdef\n"), std::string::npos);
  EXPECT_NE(traced_bytes.find("parent_span_id fedcba9876543210\n"), std::string::npos);
  // Removing exactly the two trace lines recovers the untraced bytes.
  for (const char* key : {"trace_id ", "parent_span_id "}) {
    const std::size_t at = traced_bytes.find(key);
    ASSERT_NE(at, std::string::npos);
    traced_bytes.erase(at, traced_bytes.find('\n', at) - at + 1);
  }
  EXPECT_EQ(traced_bytes, bytes);
}

TEST(Message, TraceContextRoundTripsAndParsesAsZeroWhenAbsent) {
  serve::Request req = chain_request();
  req.trace_id = 0xABCDULL;
  req.parent_span_id = 0x1ULL;
  const auto parsed = serve::parse_request(serve::serialise_request(req));
  const auto* out = std::get_if<serve::Request>(&parsed);
  ASSERT_NE(out, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(out->trace_id, 0xABCDULL);
  EXPECT_EQ(out->parent_span_id, 0x1ULL);

  const auto untraced = serve::parse_request(serve::serialise_request(chain_request()));
  const auto* u = std::get_if<serve::Request>(&untraced);
  ASSERT_NE(u, nullptr);
  EXPECT_EQ(u->trace_id, 0u);
  EXPECT_EQ(u->parent_span_id, 0u);
}

TEST(Message, ResponseEchoesTraceOnlyWhenTheRequestCarriedIt) {
  serve::Response resp;
  resp.id = 9;
  resp.ok = true;
  resp.scheduler = "tms";
  resp.ii = 2;
  resp.mii = 2;
  resp.slots = {0, 1};
  const std::string untraced = serve::serialise_response(resp);
  EXPECT_EQ(untraced.find("trace_id"), std::string::npos);
  EXPECT_EQ(untraced.find("span_id"), std::string::npos)
      << "a pre-trace client must never see trace keys";

  resp.trace_id = 0x1111ULL;
  resp.span_id = 0x2222ULL;
  const auto parsed = serve::parse_response(serve::serialise_response(resp));
  const auto* out = std::get_if<serve::Response>(&parsed);
  ASSERT_NE(out, nullptr) << std::get<std::string>(parsed);
  EXPECT_EQ(out->trace_id, 0x1111ULL);
  EXPECT_EQ(out->span_id, 0x2222ULL);
}

TEST(Service, TraceContextDoesNotChangeTheScheduleCacheKey) {
  // Same loop, same config, one request untraced and one traced: the
  // second must hit the cache entry the first created (the content key
  // ignores trace context), and only the traced one gets an echo.
  machine::MachineModel mach;
  driver::ScheduleCache cache(64);
  serve::ServiceOptions opts;
  opts.threads = 1;
  serve::CompileService svc(mach, &cache, opts);

  const serve::Response first = svc.handle(chain_request());
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_FALSE(first.cache_hit);
  EXPECT_EQ(first.trace_id, 0u);
  EXPECT_EQ(first.span_id, 0u);

  serve::Request traced = chain_request();
  traced.trace_id = 0xFEEDULL;
  const serve::Response second = svc.handle(traced);
  ASSERT_TRUE(second.ok) << second.message;
  EXPECT_TRUE(second.cache_hit) << "trace context must not perturb the cache key";
  EXPECT_EQ(second.trace_id, 0xFEEDULL) << "traced requests get their id echoed";
  EXPECT_NE(second.span_id, 0u) << "the serve.request span id rides the response";
  svc.shutdown();
}

TEST(Server, StartFailsOnAnOverlongSocketPath) {
  machine::MachineModel mach;
  serve::ServiceOptions sopts;
  sopts.threads = 1;
  serve::CompileService service(mach, nullptr, sopts);
  serve::ServerOptions opts;
  opts.unix_path = std::string(200, 'a') + "/s";  // beyond sun_path
  serve::SocketServer server(service, opts);
  EXPECT_TRUE(server.start().has_value());
  service.shutdown();
}

}  // namespace
}  // namespace tms
