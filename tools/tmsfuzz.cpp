// tmsfuzz — differential fuzzer for the scheduling + SpMT pipeline.
//
// Sweeps seeded random loops (workloads::builder shapes) across a grid of
// SpMT configurations, schedules each with SMS, IMS and TMS, and runs the
// independent schedule validator (check/validate) plus the differential
// oracle (check/oracle) on every result. On a failure the offending loop
// is shrunk to a 1-minimal reproducer (check/shrink) and written as a
// .loop file that `tmsc` and the test suite can replay.
//
// Runs are independent (each builds its loop from its own seed, with one
// private RNG per job), so the sweep phase fans out over a
// driver::JobPool; failure handling — printing, shrinking, reproducer
// writing — stays single-threaded and walks the results in submission
// order, so the output and the failure signatures are seed-for-seed
// identical whatever --jobs is.
//
// Usage:
//   tmsfuzz [--seeds N]        number of seeds to sweep       (default 64)
//           [--start-seed S]   first seed                     (default 1)
//           [--iters N]        oracle iterations per run      (default 128)
//           [--schedulers L]   comma list of sms,ims,tms      (default all)
//           [--policy P]       core-allocation policy for the config grid:
//                              random (default; one seed-dependent policy +
//                              bus setting per seed), or a fixed name from
//                              modulo, round_robin_stride, locality,
//                              dep_distance (parameters still randomised)
//           [--jobs N]         worker threads                 (default ncpu)
//           [--out DIR]        where reproducers are written  (default .)
//           [--inject-bug]     perturb each schedule by one cycle after
//                              scheduling (a synthetic off-by-one in the
//                              scheduling window) to prove the validator
//                              catches real scheduler bugs end to end
//           [--frames]         fuzz the tmsd wire-protocol parsers
//                              (serve/frame, serve/message, the PEEK
//                              codec) and the .tmscache file reader
//                              instead of the scheduling pipeline: random
//                              noise, split feeds, byte and field-value
//                              mutations, and round-trip fixpoints,
//                              driven by --seeds/--start-seed
//           [--verbose]        per-run progress
//
// Exit status: 0 when every run is clean, 1 when any failure was found
// (reproducers are then on disk), 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "check/validate.hpp"
#include "driver/compile.hpp"
#include "driver/job_pool.hpp"
#include "driver/schedule_cache.hpp"
#include "ir/textio.hpp"
#include "policy/policy.hpp"
#include "serve/frame.hpp"
#include "serve/handler.hpp"
#include "serve/message.hpp"
#include "support/assert.hpp"
#include "support/line_codec.hpp"
#include "support/parse.hpp"
#include "support/rng.hpp"
#include "workloads/builder.hpp"

using namespace tms;

namespace {

struct FuzzOptions {
  std::uint64_t seeds = 64;
  std::uint64_t start_seed = 1;
  std::int64_t iters = 128;
  std::vector<std::string> schedulers = {"sms", "ims", "tms"};
  int jobs = 0;  ///< 0 = hardware_concurrency
  std::string out_dir = ".";
  /// "random", or a fixed policy name to pin the whole sweep to.
  std::string policy = "random";
  bool inject_bug = false;
  bool frames = false;
  bool verbose = false;
};

/// The same shape family the property tests sweep, kept in sync by the
/// fuzz-smoke ctest run: structural knobs drawn from one seed.
workloads::LoopShape fuzz_shape(std::uint64_t seed) {
  support::Rng rng(seed);
  workloads::LoopShape s;
  s.name = "fuzz_" + std::to_string(seed);
  s.target_instrs = rng.uniform_int(4, 40);
  s.rec_circuit_delay = rng.chance(0.5) ? rng.uniform_int(4, 14) : 0;
  s.rec_circuit_len = rng.uniform_int(2, 5);
  s.accumulators = rng.uniform_int(0, 3);
  s.feeders = rng.uniform_int(0, 3);
  s.mem_deps = rng.uniform_int(0, 3);
  s.mem_prob_lo = 0.01;
  s.mem_prob_hi = 0.35;
  s.fp_fraction = rng.uniform(0.1, 0.9);
  s.seed = rng.fork_seed();
  return s;
}

/// The configuration grid one seed is swept across: the paper's quad-core
/// baseline with a seed-dependent core count, plus a slow-interconnect
/// variant that stresses sync-delay and ring-backpressure paths. Both
/// entries share a seed-dependent (or pinned, --policy NAME) allocation
/// policy and shared-bus setting, so every policy, with the bus on and
/// off, is swept by the validator and the differential oracle. Pure in
/// (seed, policy_mode): the shrink predicate and the reporting pass
/// rebuild the identical grid.
std::vector<machine::SpmtConfig> config_grid(std::uint64_t seed, const std::string& policy_mode) {
  support::Rng rng(seed ^ 0xC0FF1EULL);  // distinct stream from fuzz_shape
  machine::SpmtConfig base;
  const int cores[] = {2, 4, 8};
  base.ncore = cores[rng.bounded(3)];

  // Unconditional draws keep the stream aligned between modes.
  const machine::AllocPolicy policies[] = {
      machine::AllocPolicy::kModulo, machine::AllocPolicy::kRoundRobinStride,
      machine::AllocPolicy::kLocality, machine::AllocPolicy::kDepDistance};
  const machine::AllocPolicy drawn = policies[rng.bounded(4)];
  base.policy_stride = 1 + static_cast<int>(rng.bounded(3));
  base.policy_block = 1 + static_cast<int>(rng.bounded(4));
  const int bus_bytes[] = {0, 4, 8, 16};
  base.bus_bytes_per_transfer = bus_bytes[rng.bounded(4)];
  const int bus_bw[] = {8, 16, 32};
  base.bus_bytes_per_cycle = bus_bw[rng.bounded(3)];
  if (policy_mode == "random") {
    base.policy = drawn;
  } else {
    [[maybe_unused]] const bool known = policy::policy_from_string(policy_mode, base.policy);
    TMS_ASSERT(known);  // main() validated the flag
  }

  machine::SpmtConfig slow = base;
  slow.send_cycles = 2;
  slow.hop_cycles = 1;
  slow.recv_cycles = 2;
  slow.c_reg_com = 5;
  slow.ring_queue_entries = 4;
  slow.c_spn = 5;
  return {base, slow};
}

/// A synthetic scheduler bug: shift one node of a finished schedule by a
/// cycle, the way an off-by-one in the scheduling window would. Prefers
/// the source of a zero-slack dependence so the perturbation is a real
/// constraint violation rather than a harmless slide.
void inject_off_by_one(sched::Schedule& s) {
  const ir::Loop& loop = s.loop();
  const machine::MachineModel& mach = s.machine();
  for (const ir::DepEdge& e : loop.deps()) {
    int delay = 0;
    if (!(e.kind == ir::DepKind::kMemory && e.distance >= 1)) {
      delay = e.type == ir::DepType::kFlow ? mach.latency(loop.instr(e.src).op)
              : e.type == ir::DepType::kOutput ? 1
                                               : 0;
    }
    if (s.slot(e.dst) - s.slot(e.src) == delay - s.ii() * e.distance) {
      s.set_slot(e.src, s.slot(e.src) + 1);
      return;
    }
  }
  s.set_slot(0, s.slot(0) + 1);  // no tight edge: still perturb
}

/// One full pipeline run: schedule -> validate -> lower -> cross-check ->
/// differential oracle. Returns a failure description, or nullopt when
/// every check passed.
std::optional<std::string> run_one(const ir::Loop& loop, const machine::MachineModel& mach,
                                   const machine::SpmtConfig& cfg, const std::string& scheduler,
                                   std::int64_t iters, bool inject_bug) {
  std::optional<driver::Compiled> compiled = driver::schedule_loop(loop, mach, cfg, scheduler);
  if (!compiled.has_value()) return scheduler + " found no schedule";
  sched::Schedule& schedule = compiled->schedule;

  if (inject_bug) inject_off_by_one(schedule);

  const check::CheckReport valid = check::validate_schedule(schedule, cfg, compiled->check_opts);
  if (!valid.ok()) return "validator: " + valid.to_string();

  // lower_kernel aborts on modulo-invalid schedules; the validator above
  // subsumes that check, so reaching this point is safe.
  const codegen::KernelProgram kp = codegen::lower_kernel(schedule, cfg);
  const check::CheckReport lowered = check::validate_kernel_program(kp, schedule, cfg);
  if (!lowered.ok()) return "kernel program: " + lowered.to_string();

  check::OracleOptions oracle_opts;
  oracle_opts.iterations = iters;
  oracle_opts.stream_seed = 0x5EED ^ static_cast<std::uint64_t>(loop.num_instrs());
  const check::OracleReport oracle =
      check::run_differential_oracle(loop, schedule, cfg, oracle_opts);
  if (!oracle.ok()) return "oracle: " + oracle.to_string();
  return std::nullopt;
}

/// The stable prefix of a failure message ("validator: fu-overflow",
/// "oracle: fingerprint-mismatch", ...) used as the shrink predicate:
/// a candidate only counts as reproducing when it fails the same way,
/// so the minimised loop exhibits the *original* bug, not just any bug.
std::string failure_signature(const std::string& msg) {
  const std::size_t first = msg.find(':');
  if (first == std::string::npos) return msg;
  const std::size_t second = msg.find(':', first + 1);
  return msg.substr(0, second == std::string::npos ? msg.size() : second);
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--start-seed S] [--iters N] [--jobs N] [--out DIR]\n"
               "          [--schedulers sms,ims,tms]\n"
               "          [--policy random|modulo|round_robin_stride|locality|dep_distance]\n"
               "          [--inject-bug] [--frames] [--verbose]\n",
               argv0);
  return 2;
}

/// Feed `bytes` to a FrameReader in seed-dependent chunk sizes, pulling
/// frames (and the terminal error, if any) as they complete. The parser
/// must produce the same frame sequence whatever the chunking — that is
/// the property this helper exists to stress.
struct FedResult {
  std::vector<serve::Frame> frames;
  serve::FrameError error = serve::FrameError::kNone;
};

FedResult feed_chunked(std::string_view bytes, support::Rng& rng, std::uint32_t max_payload) {
  serve::FrameReader reader(max_payload);
  FedResult out;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    const std::size_t chunk = std::min<std::size_t>(
        bytes.size() - pos, 1 + rng.bounded(static_cast<std::uint64_t>(bytes.size())));
    reader.feed(bytes.substr(pos, chunk));
    pos += chunk;
    serve::Frame f;
    for (;;) {
      const serve::FrameReader::Next next = reader.next(f);
      if (next == serve::FrameReader::Next::kFrame) {
        out.frames.push_back(f);
        continue;
      }
      if (next == serve::FrameReader::Next::kError) out.error = reader.error();
      break;
    }
    if (out.error != serve::FrameError::kNone) break;
  }
  return out;
}

std::string random_bytes(support::Rng& rng, std::size_t n) {
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.bounded(256));
  return s;
}

/// `text` with the value of one of its `key value` lines replaced by a
/// token a hostile or broken peer might send: 2^64-1, -1, a count over
/// the wire cap, a '+' sign, nothing, a 16-hex word, or a well-formed
/// slot list of another length. On a `slots` line the token replaces
/// either the whole value or the count alone.
std::string mutate_one_value(std::string_view text, support::Rng& rng) {
  static const std::vector<std::string> kTokens = {
      "18446744073709551615", "-1", std::to_string(serve::kMaxWireSlots * 2), "+3", "",
      "0123456789abcdef",     "2 0 1"};
  std::vector<std::string> lines;
  std::vector<std::size_t> victims;
  std::string_view line;
  while (support::next_line(text, line)) {
    if (line.find(' ') != std::string_view::npos) victims.push_back(lines.size());
    lines.emplace_back(line);
  }
  std::string& victim = lines[rng.pick(victims)];
  const std::size_t from = victim.find(' ') + 1;
  const bool count_only = victim.compare(0, from, "slots ") == 0 && rng.chance(0.5);
  victim.replace(from, count_only ? victim.find(' ', from) - from : std::string::npos,
                 rng.pick(kTokens));
  std::string out;
  for (const std::string& l : lines) out += l + '\n';
  return out;
}

/// One seed's worth of wire-protocol fuzzing. Returns a failure
/// description, or nullopt when every property held.
std::optional<std::string> run_frames_one(std::uint64_t seed) {
  support::Rng rng(seed ^ 0xF8A3E5ULL);  // distinct stream from fuzz_shape

  // Property 1: encode -> chunked decode is the identity, for a batch of
  // frames of every type and payload sizes from empty to multi-chunk.
  // The types are the ones the reader accepts, so a new frame type is
  // fuzzed as soon as frame_type_known admits it.
  {
    std::vector<serve::FrameType> types;
    for (int t = 0; t <= 0xff; ++t) {
      if (serve::frame_type_known(static_cast<std::uint8_t>(t))) {
        types.push_back(static_cast<serve::FrameType>(t));
      }
    }
    std::vector<serve::Frame> sent;
    std::string stream;
    const int n = 1 + static_cast<int>(rng.bounded(5));
    for (int i = 0; i < n; ++i) {
      serve::Frame f;
      f.type = rng.pick(types);
      f.payload = random_bytes(rng, rng.bounded(4096));
      stream += serve::encode_frame(f.type, f.payload);
      sent.push_back(std::move(f));
    }
    const FedResult got = feed_chunked(stream, rng, serve::kMaxPayloadBytes);
    if (got.error != serve::FrameError::kNone) {
      return std::string("valid stream reported ") + std::string(to_string(got.error));
    }
    if (got.frames.size() != sent.size()) {
      return "decoded " + std::to_string(got.frames.size()) + " of " +
             std::to_string(sent.size()) + " frames";
    }
    for (std::size_t i = 0; i < sent.size(); ++i) {
      if (got.frames[i].type != sent[i].type || got.frames[i].payload != sent[i].payload) {
        return "frame " + std::to_string(i) + " did not round-trip";
      }
    }
  }

  // Property 2: a length prefix above the reader's cap is rejected
  // before any payload is buffered, and the reader stays poisoned even
  // when fed a subsequently valid frame.
  {
    const std::string big = serve::encode_frame(serve::FrameType::kRequest,
                                                std::string(512, 'x'));
    serve::FrameReader reader(/*max_payload=*/256);
    reader.feed(big);
    serve::Frame f;
    if (reader.next(f) != serve::FrameReader::Next::kError ||
        reader.error() != serve::FrameError::kOversize) {
      return std::string("oversize frame not rejected");
    }
    reader.feed(serve::encode_frame(serve::FrameType::kPing, {}));
    if (reader.next(f) != serve::FrameReader::Next::kError) {
      return std::string("poisoned reader recovered");
    }
  }

  // Property 3: mutated headers never crash; a corrupted magic byte in
  // the first frame is always detected.
  {
    std::string stream = serve::encode_frame(serve::FrameType::kRequest,
                                             random_bytes(rng, 64 + rng.bounded(256)));
    const std::size_t victim = rng.bounded(stream.size());
    const char orig = stream[victim];
    stream[victim] = static_cast<char>(orig ^ static_cast<char>(1 + rng.bounded(255)));
    const FedResult got = feed_chunked(stream, rng, serve::kMaxPayloadBytes);
    if (victim < 4 && got.error != serve::FrameError::kBadMagic) {
      return std::string("corrupt magic byte not flagged");
    }
    (void)got;
  }

  // Property 4: pure noise never crashes either parser.
  {
    const std::string noise = random_bytes(rng, rng.bounded(2048));
    (void)feed_chunked(noise, rng, serve::kMaxPayloadBytes);
    (void)serve::parse_request(noise);
    (void)serve::parse_response(noise);
  }

  // Property 5: request serialise -> parse -> serialise is a fixpoint.
  {
    serve::Request req;
    req.id = rng.fork_seed();
    const char* scheds[] = {"sms", "ims", "tms"};
    req.scheduler = scheds[rng.bounded(3)];
    req.ncore = 1 + static_cast<int>(rng.bounded(16));
    req.deadline_ms = static_cast<std::int64_t>(rng.bounded(100000));
    // Policy/bus fields are omit-when-default on the wire; mixing default
    // and non-default draws keeps both serialisation shapes in the loop.
    req.policy = static_cast<machine::AllocPolicy>(rng.bounded(4));
    req.policy_stride = 1 + static_cast<int>(rng.bounded(4));
    req.policy_block = 1 + static_cast<int>(rng.bounded(4));
    req.bus_bytes_per_transfer = static_cast<int>(rng.bounded(3)) * 8;
    req.bus_bytes_per_cycle = 8 << rng.bounded(3);
    req.loop = workloads::build_loop(fuzz_shape(seed));
    const std::string wire = serve::serialise_request(req);
    auto parsed = serve::parse_request(wire);
    if (const auto* err = std::get_if<std::string>(&parsed)) {
      return "own request rejected: " + *err;
    }
    if (serve::serialise_request(std::get<serve::Request>(parsed)) != wire) {
      return std::string("request round-trip not a fixpoint");
    }
    // Mutations must never crash, and whatever parses must re-serialise
    // stably (parse . serialise . parse == parse).
    std::string mutated = wire;
    const std::size_t victim = rng.bounded(mutated.size());
    mutated[victim] =
        static_cast<char>(mutated[victim] ^ static_cast<char>(1 + rng.bounded(255)));
    auto reparsed = serve::parse_request(mutated);
    if (auto* ok = std::get_if<serve::Request>(&reparsed)) {
      const std::string wire2 = serve::serialise_request(*ok);
      auto third = serve::parse_request(wire2);
      if (std::get_if<serve::Request>(&third) == nullptr ||
          serve::serialise_request(std::get<serve::Request>(third)) != wire2) {
        return std::string("mutated request parse not stable");
      }
    }
  }

  // Property 6: response serialise -> parse -> serialise is a fixpoint,
  // for both the ok and the error shape.
  {
    serve::Response resp;
    resp.id = rng.fork_seed();
    resp.ok = rng.chance(0.5);
    if (resp.ok) {
      resp.scheduler = "tms";
      resp.cache_hit = rng.chance(0.5);
      resp.ii = 1 + static_cast<int>(rng.bounded(64));
      resp.mii = 1 + static_cast<int>(rng.bounded(resp.ii));
      resp.c_delay_threshold = static_cast<int>(rng.bounded(20)) - 1;
      resp.p_max = rng.uniform(0.0, 1.0);
      resp.server_ms = rng.uniform(0.0, 500.0);
      const std::size_t n = 1 + rng.bounded(64);
      for (std::size_t i = 0; i < n; ++i) {
        resp.slots.push_back(static_cast<int>(rng.bounded(256)));
      }
    } else {
      resp.code = static_cast<serve::ErrorCode>(rng.bounded(8));
      resp.retry_after_ms = static_cast<std::int64_t>(rng.bounded(10000));
      resp.message = "boom\nwith newline " + std::to_string(rng.fork_seed());
    }
    const std::string wire = serve::serialise_response(resp);
    auto parsed = serve::parse_response(wire);
    if (const auto* err = std::get_if<std::string>(&parsed)) {
      return "own response rejected: " + *err;
    }
    if (serve::serialise_response(std::get<serve::Response>(parsed)) != wire) {
      return std::string("response round-trip not a fixpoint");
    }
  }

  // Property 7: the PEEK peer-fill codec round-trips (query, hit reply,
  // miss reply), a query with one value replaced by a hostile token
  // never names more instructions than the wire cap, and noise fed to
  // either parser errors instead of crashing or fabricating a hit.
  {
    serve::PeekQuery q;
    q.key = rng.fork_seed();
    q.expect_instrs = 1 + static_cast<int>(rng.bounded(512));
    auto parsed = serve::parse_peek(serve::serialise_peek(q));
    const auto* back = std::get_if<serve::PeekQuery>(&parsed);
    if (back == nullptr || back->key != q.key || back->expect_instrs != q.expect_instrs) {
      return std::string("peek query did not round-trip");
    }
    parsed = serve::parse_peek(mutate_one_value(serve::serialise_peek(q), rng));
    if (const auto* mutated = std::get_if<serve::PeekQuery>(&parsed);
        mutated != nullptr &&
        (mutated->expect_instrs < 1 ||
         static_cast<std::size_t>(mutated->expect_instrs) > serve::kMaxWireSlots)) {
      return std::string("mutated peek query named an instruction count outside the wire cap");
    }

    std::optional<driver::ScheduleCache::Entry> entry;
    if (rng.chance(0.5)) {
      driver::ScheduleCache::Entry e;
      e.scheduler = "tms";
      e.ii = 1 + static_cast<int>(rng.bounded(64));
      e.mii = 1 + static_cast<int>(rng.bounded(e.ii));
      e.c_delay_threshold = static_cast<int>(rng.bounded(20)) - 1;
      e.p_max = rng.uniform(0.0, 1.0);
      const std::size_t n = 1 + rng.bounded(64);
      for (std::size_t i = 0; i < n; ++i) e.slots.push_back(static_cast<int>(rng.bounded(256)));
      entry = std::move(e);
    }
    auto reply = serve::parse_peek_reply(serve::serialise_peek_reply(entry));
    const auto* got = std::get_if<std::optional<driver::ScheduleCache::Entry>>(&reply);
    if (got == nullptr || got->has_value() != entry.has_value()) {
      return std::string("peek reply did not round-trip");
    }
    if (entry.has_value() &&
        ((*got)->ii != entry->ii || (*got)->slots != entry->slots ||
         (*got)->scheduler != entry->scheduler)) {
      return std::string("peek hit reply did not round-trip");
    }

    const std::string noise = random_bytes(rng, rng.bounded(512));
    if (std::get_if<std::string>(&(parsed = serve::parse_peek(noise))) == nullptr) {
      return std::string("noise accepted as a peek query");
    }
    auto noisy_reply = serve::parse_peek_reply(noise);
    if (const auto* hit = std::get_if<std::optional<driver::ScheduleCache::Entry>>(&noisy_reply);
        hit != nullptr && hit->has_value()) {
      return std::string("noise fabricated a peek hit");
    }
  }

  // Property 8: the cache-entry text, as a PEEK hit reply and as a
  // .tmscache file, round-trips; with one field's value replaced by a
  // hostile token, neither reader throws, a PEEK hit never names more
  // slots than the wire cap, and the file never yields an entry whose
  // slot count is not the loop's.
  {
    driver::ScheduleCache::Entry e;
    e.scheduler = "tms";
    e.ii = 1 + static_cast<int>(rng.bounded(64));
    e.mii = 1 + static_cast<int>(rng.bounded(e.ii));
    e.c_delay_threshold = static_cast<int>(rng.bounded(20)) - 1;
    e.p_max = rng.uniform(0.0, 1.0);
    const int n = 1 + static_cast<int>(rng.bounded(64));
    for (int i = 0; i < n; ++i) e.slots.push_back(static_cast<int>(rng.bounded(256)));
    const std::uint64_t key = rng.fork_seed();
    const std::string reply = serve::serialise_peek_reply(e);
    const std::string file = driver::ScheduleCache::file_text(key, e);
    const auto back = driver::ScheduleCache::parse_file(file, key, n);
    if (!back.has_value() || back->slots != e.slots || back->ii != e.ii ||
        back->p_max != e.p_max || driver::ScheduleCache::file_text(key, *back) != file) {
      return std::string("cache file did not round-trip");
    }
    if (driver::ScheduleCache::parse_file(file, key, n + 1).has_value()) {
      return std::string("cache file accepted for a loop of another size");
    }
    for (int round = 0; round < 8; ++round) {
      try {
        auto got = serve::parse_peek_reply(mutate_one_value(reply, rng));
        if (const auto* hit = std::get_if<std::optional<driver::ScheduleCache::Entry>>(&got);
            hit != nullptr && hit->has_value() && (*hit)->slots.size() > serve::kMaxWireSlots) {
          return std::string("mutated peek reply named more slots than the wire cap");
        }
        const auto disk = driver::ScheduleCache::parse_file(mutate_one_value(file, rng), key, n);
        if (disk.has_value() && static_cast<int>(disk->slots.size()) != n) {
          return std::string("mutated cache file yielded a slot count other than the loop's");
        }
      } catch (const std::exception& ex) {
        return std::string("mutated cache-entry text threw: ") + ex.what();
      }
    }
  }
  return std::nullopt;
}

/// --frames: sweep the wire-protocol properties across the seed range.
int run_frames(const FuzzOptions& opt) {
  std::uint64_t failures = 0;
  for (std::uint64_t seed = opt.start_seed; seed < opt.start_seed + opt.seeds; ++seed) {
    const auto failure = run_frames_one(seed);
    if (opt.verbose) {
      std::printf("frames seed %llu: %s\n", (unsigned long long)seed,
                  failure.has_value() ? "FAIL" : "ok");
    }
    if (failure.has_value()) {
      ++failures;
      std::printf("FAILURE frames seed %llu: %s\n", (unsigned long long)seed, failure->c_str());
    }
  }
  std::printf("tmsfuzz: %llu frame seed(s), %llu failure(s)\n", (unsigned long long)opt.seeds,
              (unsigned long long)failures);
  return failures == 0 ? 0 : 1;
}

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::size_t end = (comma == std::string::npos) ? s.size() : comma;
    if (end > pos) out.push_back(s.substr(pos, end - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  FuzzOptions opt;
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
    if (a == "--seeds") {
      int_arg("--seeds", opt.seeds);
    } else if (a == "--start-seed") {
      int_arg("--start-seed", opt.start_seed);
    } else if (a == "--iters") {
      int_arg("--iters", opt.iters);
    } else if (a == "--schedulers") {
      opt.schedulers = split_csv(next("--schedulers"));
    } else if (a == "--jobs") {
      int_arg("--jobs", opt.jobs);
    } else if (a == "--out") {
      opt.out_dir = next("--out");
    } else if (a == "--policy") {
      opt.policy = next("--policy");
    } else if (a == "--inject-bug") {
      opt.inject_bug = true;
    } else if (a == "--frames") {
      opt.frames = true;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }
  for (const std::string& s : opt.schedulers) {
    if (!driver::known_scheduler(s)) {
      std::fprintf(stderr, "unknown scheduler '%s'\n", s.c_str());
      return 2;
    }
  }
  if (opt.policy != "random") {
    machine::AllocPolicy parsed;
    if (!policy::policy_from_string(opt.policy, parsed)) {
      std::fprintf(stderr, "unknown policy '%s'\n", opt.policy.c_str());
      return 2;
    }
  }

  if (opt.frames) return run_frames(opt);

  const machine::MachineModel mach;

  // Enumerate every (seed, config, scheduler) run up front, in the same
  // nesting order the serial sweep used; the sweep then fans out on the
  // JobPool with results landing at their submission index.
  struct RunSpec {
    std::uint64_t seed = 0;
    std::size_t cfg_index = 0;
    std::string scheduler;
  };
  std::vector<RunSpec> specs;
  for (std::uint64_t seed = opt.start_seed; seed < opt.start_seed + opt.seeds; ++seed) {
    const std::size_t ncfg = config_grid(seed, opt.policy).size();
    for (std::size_t c = 0; c < ncfg; ++c) {
      for (const std::string& scheduler : opt.schedulers) {
        specs.push_back({seed, c, scheduler});
      }
    }
  }

  // Each job is pure in its spec: the loop is rebuilt from the seed with
  // a job-private RNG, so nothing is shared across jobs and the outcome
  // vector is identical at --jobs 1 and --jobs 8.
  std::vector<std::optional<std::string>> outcomes(specs.size());
  driver::JobPool pool(opt.jobs);
  pool.run(specs.size(), [&](std::size_t i) {
    const RunSpec& spec = specs[i];
    const ir::Loop loop = workloads::build_loop(fuzz_shape(spec.seed));
    const machine::SpmtConfig cfg = config_grid(spec.seed, opt.policy)[spec.cfg_index];
    outcomes[i] = run_one(loop, mach, cfg, spec.scheduler, opt.iters, opt.inject_bug);
  });

  // Reporting and shrinking stay single-threaded, in submission order:
  // the shrinker's predicate reruns the pipeline many times and its
  // signature check must match the original failure, not a concurrent
  // one's.
  std::uint64_t failures = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const RunSpec& spec = specs[i];
    const std::optional<std::string>& failure = outcomes[i];
    const machine::SpmtConfig cfg = config_grid(spec.seed, opt.policy)[spec.cfg_index];
    if (opt.verbose) {
      std::printf("seed %llu ncore %d %s %s: %s\n", (unsigned long long)spec.seed, cfg.ncore,
                  std::string(policy::to_string(cfg.policy)).c_str(), spec.scheduler.c_str(),
                  failure.has_value() ? "FAIL" : "ok");
    }
    if (!failure.has_value()) continue;
    ++failures;
    std::printf(
        "FAILURE seed %llu, ncore %d, c_reg_com %d, policy %s (stride %d, block %d), "
        "bus %d/%d, scheduler %s:\n%s\n",
        (unsigned long long)spec.seed, cfg.ncore, cfg.c_reg_com,
        std::string(policy::to_string(cfg.policy)).c_str(), cfg.policy_stride, cfg.policy_block,
        cfg.bus_bytes_per_transfer, cfg.bus_bytes_per_cycle, spec.scheduler.c_str(),
        failure->c_str());

    // Shrink: keep dropping instructions/edges while the same pipeline
    // (same scheduler, config, injection setting) fails with the same
    // failure signature.
    const ir::Loop loop = workloads::build_loop(fuzz_shape(spec.seed));
    const std::string sig = failure_signature(*failure);
    const ir::Loop shrunk = check::shrink_loop(loop, [&](const ir::Loop& candidate) {
      const auto f = run_one(candidate, mach, cfg, spec.scheduler, opt.iters, opt.inject_bug);
      return f.has_value() && failure_signature(*f) == sig;
    });
    const std::string path = opt.out_dir + "/tmsfuzz_" + std::to_string(spec.seed) + "_" +
                             spec.scheduler + ".loop";
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "cannot write reproducer %s\n", path.c_str());
      continue;
    }
    out << "# tmsfuzz reproducer: seed " << spec.seed << ", scheduler " << spec.scheduler
        << ", ncore " << cfg.ncore << ", c_reg_com " << cfg.c_reg_com << ", policy "
        << policy::to_string(cfg.policy) << " (stride " << cfg.policy_stride << ", block "
        << cfg.policy_block << "), bus " << cfg.bus_bytes_per_transfer << "/"
        << cfg.bus_bytes_per_cycle << (opt.inject_bug ? ", injected off-by-one" : "") << "\n"
        << "# replay: tmsc <this file> --scheduler " << spec.scheduler << " --ncore "
        << cfg.ncore << " --policy " << policy::to_string(cfg.policy) << " --policy-stride "
        << cfg.policy_stride << " --policy-block " << cfg.policy_block << " --bus-bytes "
        << cfg.bus_bytes_per_transfer << " --bus-bandwidth " << cfg.bus_bytes_per_cycle
        << " --simulate " << opt.iters << "\n"
        << ir::serialise_loop(shrunk);
    std::printf("  shrunk %d -> %d instrs, %zu -> %zu deps; reproducer: %s\n",
                loop.num_instrs(), shrunk.num_instrs(), loop.deps().size(),
                shrunk.deps().size(), path.c_str());
    const auto shrunk_failure =
        run_one(shrunk, mach, cfg, spec.scheduler, opt.iters, opt.inject_bug);
    if (shrunk_failure.has_value()) {
      std::printf("  shrunk failure: %s\n", shrunk_failure->c_str());
    }
  }

  std::printf("tmsfuzz: %zu run(s) over %llu seed(s), %llu failure(s)%s\n", specs.size(),
              (unsigned long long)opt.seeds, (unsigned long long)failures,
              opt.inject_bug ? " [bug injection on]" : "");
  return failures == 0 ? 0 : 1;
}
