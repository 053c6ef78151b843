#include "serve/service.hpp"

#include <cstdio>
#include <exception>
#include <optional>
#include <utility>

#include "codegen/kernel_program.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "serve/client.hpp"
#include "spmt/estimate.hpp"
#include "support/json.hpp"
#include "support/line_codec.hpp"

namespace tms::serve {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::int64_t us_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start).count();
}

}  // namespace

driver::PeerFillFn peek_peers(std::vector<std::string> peers, int timeout_ms) {
  return [peers = std::move(peers), timeout_ms](std::uint64_t key, int expect_instrs)
             -> std::optional<driver::ScheduleCache::Entry> {
    for (const std::string& peer : peers) {
      Client client;
      if (client.connect_unix(peer, timeout_ms).has_value()) continue;
      std::optional<driver::ScheduleCache::Entry> entry;
      if (client.peek({key, expect_instrs}, entry).has_value()) continue;
      if (entry.has_value()) return entry;
    }
    return std::nullopt;
  };
}

CompileService::CompileService(const machine::MachineModel& mach, driver::ScheduleCache* cache,
                               ServiceOptions opts)
    : mach_(mach),
      cache_(cache),
      opts_(opts),
      started_(Clock::now()),
      pool_(opts.threads, opts.queue_capacity) {}

CompileService::~CompileService() { shutdown(); }

void CompileService::begin_drain() { draining_.store(true, std::memory_order_release); }

void CompileService::shutdown() {
  begin_drain();
  pool_.shutdown(driver::TaskPool::Drain::kFinishQueued);
}

std::int64_t CompileService::uptime_ms() const {
  return std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - started_).count();
}

std::string CompileService::stats_json() const {
  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "tmsd-stats-v1");
  w.member("uptime_ms", uptime_ms());
  w.member("queue_depth", static_cast<std::uint64_t>(pool_.queue_depth()));
  w.member("in_flight", in_flight());
  w.member("draining", draining());
  w.key("observability");
  obs::write_counters_json(w, obs::counters_snapshot());
  w.end_object();
  return w.str();
}

std::string CompileService::peek_reply(std::string_view payload) {
  // A malformed probe gets a well-formed miss rather than a protocol
  // error: the asking shard treats every non-hit identically (it just
  // recomputes), so there is nothing useful to signal.
  auto parsed = parse_peek(payload);
  if (std::holds_alternative<std::string>(parsed) || cache_ == nullptr) {
    return serialise_peek_reply(std::nullopt);
  }
  const PeekQuery& q = std::get<PeekQuery>(parsed);
  return serialise_peek_reply(cache_->lookup(q.key, q.expect_instrs));
}

std::string CompileService::flight_json() const {
  if (opts_.flight == nullptr) return Handler::flight_json();
  return obs::flight_to_json(*opts_.flight);
}

std::string CompileService::health_line() const {
  const bool d = draining();
  std::string out = d ? "draining" : "ok";
  out += " uptime_ms=" + std::to_string(uptime_ms());
  out += " queue_depth=" + std::to_string(pool_.queue_depth());
  out += " in_flight=" + std::to_string(in_flight());
  out += " draining=";
  out += d ? '1' : '0';
  return out;
}

void CompileService::log_slow(const Request& req, const Response& resp, std::string_view peer) {
  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "tmsd-slow-v1");
  w.member("request_id", resp.request_id);
  // Trace exemplar: the id that finds this request in a stitched
  // cluster trace or a flight-recorder dump.
  if (resp.trace_id != 0) w.member("trace_id", support::hex16(resp.trace_id));
  w.member("peer", peer.empty() ? std::string_view("?") : peer);
  w.member("scheduler", req.scheduler);
  w.member("loop", req.loop.name());
  w.member("outcome", resp.ok ? std::string_view("ok") : to_string(resp.code));
  w.member("queue_us", resp.t_queue_us);
  w.member("schedule_us", resp.t_schedule_us);
  w.member("validate_us", resp.t_validate_us);
  w.member("total_us", resp.t_total_us);
  w.end_object();
  std::FILE* dest = opts_.slow_log != nullptr ? opts_.slow_log : stderr;
  const std::lock_guard<std::mutex> lock(slow_log_mu_);
  std::fprintf(dest, "%s\n", w.str().c_str());
  std::fflush(dest);
}

Response CompileService::handle(const Request& req, std::string_view peer) {
  const Clock::time_point start = Clock::now();
  in_flight_.fetch_add(1, std::memory_order_acq_rel);
  std::string request_id = req.request_id;
  if (request_id.empty()) {
    request_id =
        "srv-" + std::to_string(minted_ids_.fetch_add(1, std::memory_order_relaxed) + 1);
  }

  const bool has_deadline = req.deadline_ms > 0;
  const Clock::time_point deadline =
      has_deadline ? start + std::chrono::milliseconds(req.deadline_ms) : Clock::time_point::max();

  bool pipeline_ran = false;
  Response resp = admit(req, request_id, start, deadline, has_deadline, pipeline_ran);
  resp.id = req.id;
  resp.request_id = request_id;
  // Echo the trace id on every outcome, including turn-aways minted in
  // admit(); the span id is set by the pipeline when it ran.
  resp.trace_id = req.trace_id;
  const std::int64_t total_us = us_since(start);
  resp.server_ms = ms_since(start);

  // Stage latencies are recorded together, for exactly the requests
  // whose pipeline task ran (never for overload/drain turn-aways or
  // cancelled-while-queued deadlines): the four serve.latency.*
  // histograms always hold the same number of samples, and a stage the
  // request never reached contributes a zero, so per-request
  // queue + schedule + validate <= total holds across the sums.
  if (pipeline_ran) {
    resp.t_total_us = total_us;
    obs::Counters& c = obs::counters();
    c.serve_latency_queue_wait.record_us(static_cast<std::uint64_t>(resp.t_queue_us));
    c.serve_latency_schedule.record_us(static_cast<std::uint64_t>(resp.t_schedule_us));
    c.serve_latency_validate.record_us(static_cast<std::uint64_t>(resp.t_validate_us));
    c.serve_latency_total.record_us(static_cast<std::uint64_t>(total_us));
  }
  if (resp.ok) {
    obs::counters().serve_responses_ok.add(1);
  } else {
    obs::counters().serve_responses_error.add(1);
  }
  // One flight record per pipeline run: the per-class outcome feed for
  // the FLIGHT verb, SIGUSR2/slow-request dumps, and (next) the
  // adaptive-threshold policy. Turn-aways that never ran the pipeline
  // have no stage story to tell and would flood the ring under
  // overload, so they are not recorded.
  if (pipeline_ran && opts_.flight != nullptr) {
    obs::FlightRecord fr;
    fr.trace_id = resp.trace_id;
    fr.span_id = resp.span_id;
    obs::flight_copy(fr.request_id, sizeof fr.request_id, request_id);
    obs::flight_copy(fr.loop, sizeof fr.loop, req.loop.name());
    obs::flight_copy(fr.scheduler, sizeof fr.scheduler, req.scheduler);
    obs::flight_copy(fr.outcome, sizeof fr.outcome,
                     resp.ok ? std::string_view("ok") : to_string(resp.code));
    fr.instrs = req.loop.num_instrs();
    fr.ncore = req.ncore;
    fr.cache_hit = resp.cache_hit;
    fr.ii = resp.ii;
    fr.mii = resp.mii;
    fr.c_delay_threshold = resp.c_delay_threshold;
    fr.p_max = resp.p_max;
    fr.t_queue_us = resp.t_queue_us;
    fr.t_schedule_us = resp.t_schedule_us;
    fr.t_validate_us = resp.t_validate_us;
    fr.t_total_us = resp.t_total_us;
    opts_.flight->record(fr);
  }
  if (opts_.slow_ms >= 0 && total_us >= opts_.slow_ms * 1000) {
    obs::counters().serve_slow_requests.add(1);
    log_slow(req, resp, peer);
    if (opts_.on_slow) opts_.on_slow();
  }
  in_flight_.fetch_sub(1, std::memory_order_acq_rel);
  return resp;
}

Response CompileService::admit(const Request& req, const std::string& request_id,
                               Clock::time_point start, Clock::time_point deadline,
                               bool has_deadline, bool& pipeline_ran) {
  if (draining()) {
    obs::counters().serve_drain_refused.add(1);
    return make_error(req.id, ErrorCode::kShutdown, "server is draining");
  }
  if (!driver::known_scheduler(req.scheduler)) {
    return make_error(req.id, ErrorCode::kBadRequest,
                      "unknown scheduler '" + req.scheduler + "'");
  }
  const machine::SpmtConfig cfg = request_config(req, opts_.machine_defaults);
  if (const auto err = policy::machine_config_error(cfg)) {
    return make_error(req.id, ErrorCode::kBadRequest, *err);
  }

  // Admission: never block on a full queue — answer overload right away.
  obs::counters().serve_queue_depth.record(pool_.queue_depth());
  auto out = std::make_shared<Response>();
  auto task = pool_.try_submit(
      [this, &req, &cfg, &request_id, out, start, deadline, has_deadline] {
        const std::int64_t queue_us = us_since(start);
        *out = compile(req, cfg, request_id, queue_us, start, deadline, has_deadline);
      });
  if (task == nullptr) {
    obs::counters().serve_rejected_overload.add(1);
    return make_error(req.id, ErrorCode::kOverload, "compile queue over high-water mark",
                      opts_.retry_after_ms);
  }
  obs::counters().serve_requests.add(1);

  if (has_deadline && !task->wait_until(deadline)) {
    // Expired while queued: cancel before it starts. If it is already
    // running, the pipeline's own deadline checks bound the overrun —
    // wait for its (deadline-errored) response.
    if (task->cancel()) {
      obs::counters().serve_deadline_missed.add(1);
      return make_error(req.id, ErrorCode::kDeadline, "deadline expired while queued");
    }
  }
  task->wait();
  try {
    task->rethrow();
  } catch (const std::exception& ex) {
    return make_error(req.id, ErrorCode::kInternal, ex.what());
  } catch (...) {
    return make_error(req.id, ErrorCode::kInternal, "unknown exception");
  }
  pipeline_ran = true;
  return std::move(*out);
}

Response CompileService::compile(const Request& req, const machine::SpmtConfig& cfg,
                                 const std::string& request_id, std::int64_t queue_us,
                                 Clock::time_point start, Clock::time_point deadline,
                                 bool has_deadline) const {
  // Continue the caller's distributed trace (or run untraced when the
  // request carried no context): every span below — and any scheduler
  // spans nested deeper — lands in the request's trace, and the
  // pre-minted continuation span id is echoed to the client even while
  // the tracer is disarmed. Compile workers are long-lived pool
  // threads, so the scope also prevents context leaking across
  // requests.
  obs::ScopedTraceContext tctx(req.trace_id, req.parent_span_id);
  TMS_TRACE_SPAN(span, "serve", "serve.request");
  TMS_TRACE_SPAN_ARG(span, obs::targ("request_id", obs::intern(request_id)),
                     obs::targ("queue_us", queue_us));

  Response resp;
  resp.id = req.id;
  resp.scheduler = req.scheduler;
  resp.t_queue_us = queue_us;
  resp.trace_id = req.trace_id;
  resp.span_id = tctx.span_id();

  const auto expired = [&] { return has_deadline && Clock::now() > deadline; };
  // Error responses keep the stage timings accumulated so far, so the
  // slow log and client show where a failed request spent its time.
  const auto fail = [&](ErrorCode code, std::string message, const Response& r) {
    Response e = make_error(req.id, code, std::move(message));
    e.t_queue_us = r.t_queue_us;
    e.t_schedule_us = r.t_schedule_us;
    e.t_validate_us = r.t_validate_us;
    e.trace_id = r.trace_id;
    e.span_id = r.span_id;
    return e;
  };
  const auto deadline_response = [&](const char* stage, const Response& r) {
    obs::counters().serve_deadline_missed.add(1);
    return fail(ErrorCode::kDeadline, std::string("deadline expired ") + stage, r);
  };
  const auto compile_failed = [&](const driver::CompileResult& c, const Response& r) {
    return fail(c.status == driver::CompileStatus::kScheduleFail ? ErrorCode::kScheduleFail
                                                                   : ErrorCode::kValidateFail,
                c.detail, r);
  };

  if (const auto err = req.loop.validate()) {
    return fail(ErrorCode::kBadRequest, "malformed loop: " + *err, resp);
  }
  if (expired()) return deadline_response("before scheduling", resp);

  // The shared pipeline (driver/compile.hpp), in two halves so each gets
  // its own span, stage timer and deadline check.
  const driver::CompileRequest in{req.loop, mach_, cfg, req.scheduler, cache_, &opts_.peer_fill};
  const Clock::time_point sched_start = Clock::now();
  driver::CompileResult c;
  {
    TMS_TRACE_SPAN(sched_span, "serve", "serve.schedule");
    c = driver::compile_schedule(in);
  }
  resp.t_schedule_us = us_since(sched_start);
  if (c.status != driver::CompileStatus::kOk) return compile_failed(c, resp);
  if (expired()) return deadline_response("after scheduling", resp);

  const Clock::time_point validate_start = Clock::now();
  if (driver::needs_validation(c, opts_.validate)) {
    TMS_TRACE_SPAN(val_span, "serve", "serve.validate");
    driver::compile_validate(in, c, opts_.validate);
  }
  resp.t_validate_us = us_since(validate_start);
  if (c.status != driver::CompileStatus::kOk) return compile_failed(c, resp);
  if (expired()) return deadline_response("after validation", resp);
  const driver::Compiled& sl = *c.compiled;
  resp.cache_hit = c.cache_hit;

  // Simulator-backed verification (--sim-verify): a bounded run of the
  // event-driven engine over the lowered kernel must commit exactly the
  // sequential reference semantics before the response ships. The
  // validator proves the schedule well-formed; this proves the machine
  // executing it speculatively still produces sequential results.
  if (opts_.sim_verify) {
    TMS_TRACE_SPAN(sv_span, "serve", "serve.sim_verify");
    const Clock::time_point sv_start = Clock::now();
    const codegen::KernelProgram kp = codegen::lower_kernel(sl.schedule, cfg);
    spmt::QuickEstimateOptions qopts;
    qopts.iterations = opts_.sim_verify_iterations;
    const spmt::QuickEstimate qe = spmt::quick_estimate(req.loop, kp, cfg, qopts);
    obs::counters().serve_latency_sim_verify.record_us(
        static_cast<std::uint64_t>(us_since(sv_start)));
    if (!qe.semantics_ok) {
      obs::counters().serve_sim_verify_failures.add(1);
      return fail(ErrorCode::kValidateFail,
                  "sim-verify: committed state diverged from the sequential reference", resp);
    }
    if (expired()) return deadline_response("after sim-verify", resp);
  }

  resp.ok = true;
  resp.ii = sl.schedule.ii();
  resp.mii = sl.mii;
  resp.c_delay_threshold = sl.check_opts.c_delay_threshold;
  resp.p_max = sl.check_opts.p_max;
  const int n = req.loop.num_instrs();
  resp.slots.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) resp.slots.push_back(sl.schedule.slot(v));
  resp.server_ms = ms_since(start);
  return resp;
}

}  // namespace tms::serve
