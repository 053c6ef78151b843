// tmsq — one-shot client for the tmsd compile service.
//
// Sends a single loop to a running tmsd and prints the schedule (the
// same flat rendering as `tmsc --render flat`, so outputs diff cleanly),
// or probes liveness with --ping. tmsc --remote delegates here in
// spirit: both use serve::Client and print through viz::render.
//
// Usage:
//   tmsq --socket PATH [<loop-file>] [options]
//   tmsq --tcp HOST:PORT [<loop-file>] [options]
//   tmsq --router PATH [<loop-file>] [options]
//     --router PATH            Unix socket of a tmsrouter front-end. Same
//                              wire protocol; tmsq additionally mints a
//                              request_id when none was given and verifies
//                              the echo survived the extra hop (exit-code
//                              contract unchanged)
//     --scheduler sms|ims|tms  (default tms)
//     --ncore N                (default 4; 1..1024, else exit 2)
//     --deadline-ms N          per-request deadline (0 = none)
//     --timeout-ms N           socket send/recv timeout (default 30000)
//     --request-id ID          end-to-end request id ([A-Za-z0-9._:-],
//                              <= 64 chars); echoed by the server and
//                              attached to its trace span
//     --trace-out FILE         mint a trace id, send it with the request,
//                              and write the server-echoed span summary
//                              (tmsq-trace-v1 JSON) to FILE. The ids tie
//                              this invocation to the server's own trace
//                              dump (docs/OBSERVABILITY.md). Exit codes
//                              are unchanged
//     --ping                   liveness probe instead of a request
//     --quiet                  suppress the "remote:" summary line
//
// Exit status (the contract scripts dispatch on — see docs/DRIVER.md):
//   0  schedule received (or pong)
//   1  transport failure, or a server error not listed below
//   2  usage error
//   3  server answered `overload` (retry_after_ms printed)
//   4  server answered `deadline`
//   5  server answered `parse` or `bad-request` (the request itself is
//      broken; retrying it verbatim cannot succeed)
// Every structured error prints its full payload: code, message, the
// echoed request_id, and retry_after_ms when the server set one. Retry
// policy still belongs to the caller (loadgen implements one).
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "ir/textio.hpp"
#include "machine/machine.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "sched/schedule.hpp"
#include "serve/client.hpp"
#include "support/json.hpp"
#include "support/parse.hpp"
#include "viz/render.hpp"

using namespace tms;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--socket PATH | --tcp HOST:PORT | --router PATH) [<loop-file>]\n"
               "          [--scheduler sms|ims|tms] [--ncore N] [--deadline-ms N]\n"
               "          [--timeout-ms N] [--request-id ID] [--trace-out FILE]\n"
               "          [--ping] [--quiet]\n"
               "exit: 0 ok, 1 transport/other, 2 usage, 3 overload, 4 deadline,\n"
               "      5 parse/bad-request\n",
               argv0);
  return 2;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Best-effort: a failure to write the summary warns but never changes
/// the exit code (the contract scripts dispatch on).
void write_trace_summary(const std::string& path, const tms::serve::Request& req,
                         const tms::serve::Response& resp) {
  tms::support::JsonWriter w;
  w.begin_object();
  w.member("schema", "tmsq-trace-v1");
  w.member("trace_id", hex16(req.trace_id));
  w.member("span_id", hex16(resp.span_id));
  w.member("request_id", resp.request_id);
  w.member("ok", resp.ok);
  if (!resp.ok) w.member("code", std::string(tms::serve::to_string(resp.code)));
  w.member("echoed", resp.trace_id == req.trace_id);
  w.member("t_queue_us", resp.t_queue_us);
  w.member("t_schedule_us", resp.t_schedule_us);
  w.member("t_validate_us", resp.t_validate_us);
  w.member("t_total_us", resp.t_total_us);
  w.member("server_ms", resp.server_ms);
  w.end_object();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "tmsq: cannot write --trace-out %s\n", path.c_str());
    return;
  }
  const std::string json = w.str();
  std::fwrite(json.data(), 1, json.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path;
  std::string tcp;
  std::string loop_file;
  serve::Request req;
  int timeout_ms = 30000;
  bool ping = false;
  bool quiet = false;
  bool router_mode = false;
  std::string trace_out;

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
    } else if (a == "--router") {
      socket_path = next("--router");
      router_mode = true;
    } else if (a == "--tcp") {
      tcp = next("--tcp");
    } else if (a == "--scheduler") {
      req.scheduler = next("--scheduler");
    } else if (a == "--ncore") {
      machine::SpmtConfig cfg;
      if (const auto err = policy::parse_machine_flag(a, next("--ncore"), cfg)) {
        std::fprintf(stderr, "%s\n", err->c_str());
        return 2;
      }
      req.ncore = cfg.ncore;
    } else if (a == "--deadline-ms") {
      int_arg("--deadline-ms", req.deadline_ms);
    } else if (a == "--timeout-ms") {
      int_arg("--timeout-ms", timeout_ms);
    } else if (a == "--request-id") {
      req.request_id = next("--request-id");
      if (!serve::valid_request_id(req.request_id)) {
        std::fprintf(stderr, "bad --request-id (1..64 chars of [A-Za-z0-9._:-])\n");
        return 2;
      }
    } else if (a == "--trace-out") {
      trace_out = next("--trace-out");
    } else if (a == "--ping") {
      ping = true;
    } else if (a == "--quiet") {
      quiet = true;
    } else if (!a.empty() && a[0] == '-') {
      return usage(argv[0]);
    } else if (loop_file.empty()) {
      loop_file = a;
    } else {
      return usage(argv[0]);
    }
  }
  if (socket_path.empty() == tcp.empty()) {
    std::fprintf(stderr, "exactly one of --socket / --tcp / --router is required\n");
    return usage(argv[0]);
  }
  // Through a router the request crosses two hops; a minted id makes the
  // echo check below meaningful even when the caller didn't pass one.
  if (router_mode && req.request_id.empty()) {
    req.request_id = "tmsq-" + std::to_string(static_cast<long long>(::getpid()));
  }
  if (!ping && loop_file.empty()) {
    std::fprintf(stderr, "a loop file is required unless --ping\n");
    return usage(argv[0]);
  }

  serve::Client client;
  std::optional<std::string> err;
  if (!socket_path.empty()) {
    err = client.connect_unix(socket_path, timeout_ms);
  } else {
    std::string host;
    int port = 0;
    if (!support::parse_host_port(tcp, host, port)) {
      std::fprintf(stderr, "--tcp expects HOST:PORT\n");
      return 2;
    }
    err = client.connect_tcp(host, port, timeout_ms);
  }
  if (err.has_value()) {
    std::fprintf(stderr, "tmsq: %s\n", err->c_str());
    return 1;
  }

  if (ping) {
    if (const auto perr = client.ping()) {
      std::fprintf(stderr, "tmsq: ping failed: %s\n", perr->c_str());
      return 1;
    }
    std::printf("pong\n");
    return 0;
  }

  std::ifstream file(loop_file);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", loop_file.c_str());
    return 1;
  }
  auto parsed = ir::parse_loop(file);
  if (const auto* perr = std::get_if<ir::ParseError>(&parsed)) {
    std::fprintf(stderr, "%s:%d: %s\n", loop_file.c_str(), perr->line, perr->message.c_str());
    return 1;
  }
  req.loop = std::get<ir::Loop>(std::move(parsed));
  if (!trace_out.empty()) req.trace_id = obs::mint_id();

  auto result = client.compile(req);
  if (const auto* terr = std::get_if<std::string>(&result)) {
    std::fprintf(stderr, "tmsq: %s\n", terr->c_str());
    return 1;
  }
  const serve::Response& resp = std::get<serve::Response>(result);
  if (!trace_out.empty()) write_trace_summary(trace_out, req, resp);
  if (router_mode && resp.request_id != req.request_id) {
    std::fprintf(stderr, "tmsq: request_id echo lost across the router hop: sent %s, got %s\n",
                 req.request_id.c_str(),
                 resp.request_id.empty() ? "(empty)" : resp.request_id.c_str());
    return 1;
  }
  if (!resp.ok) {
    // Full structured payload: code, message, echoed request_id, and the
    // backoff hint whenever the server set one (not only for overload).
    std::fprintf(stderr, "tmsq: server error [%s]: %s\n",
                 std::string(serve::to_string(resp.code)).c_str(), resp.message.c_str());
    if (!resp.request_id.empty()) {
      std::fprintf(stderr, "tmsq: request_id %s\n", resp.request_id.c_str());
    }
    if (resp.retry_after_ms > 0) {
      std::fprintf(stderr, "tmsq: server suggests retrying after %lld ms\n",
                   (long long)resp.retry_after_ms);
    }
    switch (resp.code) {
      case serve::ErrorCode::kOverload:
        return 3;
      case serve::ErrorCode::kDeadline:
        return 4;
      case serve::ErrorCode::kParse:
      case serve::ErrorCode::kBadRequest:
        return 5;
      default:
        return 1;
    }
  }

  // Rebuild the schedule locally from the response slots — the response
  // carries exactly what a cache entry does, so the rendering below is
  // byte-identical to `tmsc --render flat` on the same loop.
  machine::MachineModel mach;
  if (resp.slots.size() != static_cast<std::size_t>(req.loop.num_instrs())) {
    std::fprintf(stderr, "tmsq: response has %zu slots for a %d-instruction loop\n",
                 resp.slots.size(), req.loop.num_instrs());
    return 1;
  }
  sched::Schedule schedule(req.loop, mach, resp.ii);
  for (int v = 0; v < req.loop.num_instrs(); ++v) {
    schedule.set_slot(v, resp.slots[static_cast<std::size_t>(v)]);
  }
  if (const auto verr = schedule.validate()) {
    std::fprintf(stderr, "tmsq: response schedule is invalid: %s\n", verr->c_str());
    return 1;
  }
  if (!quiet) {
    std::printf("remote: %s ii=%d mii=%d cache_hit=%d server_ms=%.2f request_id=%s\n",
                resp.scheduler.c_str(), resp.ii, resp.mii, resp.cache_hit ? 1 : 0,
                resp.server_ms, resp.request_id.c_str());
  }
  std::printf("%s", viz::render_flat_schedule(schedule).c_str());
  return 0;
}
