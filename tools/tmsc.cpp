// tmsc — command-line driver: schedule (and optionally simulate) a loop
// described in the text format of src/ir/textio.hpp.
//
// Usage:
//   tmsc <loop-file> [options]
//     --scheduler sms|ims|tms   (default tms)
//     --unroll U                (default 1)
//     --simulate N              simulate N iterations on the SpMT machine
//     --baseline N              also run the single-threaded core
//     --render flat|kernel|exec|dot|all   (default kernel)
//     --metrics                 print the Table-2 style metric line
//     --profile N               profile dependence frequencies over N
//                               iterations and re-annotate before scheduling
//     --registers R             register-file budget (MaxLive + copies)
//     --ncore N (default 4), --policy P, --policy-stride N,
//     --policy-block N, --bus-bytes N, --bus-bandwidth N
//                               machine flags, shared with tmsbatch, tmsd
//                               and loadgen (policy::parse_machine_flag,
//                               docs/POLICY.md); out-of-range values exit 2
//     --remote SOCKET           schedule on a running tmsd (Unix socket
//                               path) instead of in-process; everything
//                               downstream (render, metrics, simulate)
//                               runs locally on the returned schedule
//     --deadline-ms N           per-request deadline for --remote
//
// Example:
//   ./build/tools/tmsc examples/loops/dotprod.loop --simulate 2000 --metrics
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "codegen/kernel_program.hpp"
#include "driver/compile.hpp"
#include "ir/textio.hpp"
#include "ir/unroll.hpp"
#include "policy/policy.hpp"
#include "sched/postpass.hpp"
#include "sched/regpressure.hpp"
#include "serve/client.hpp"
#include "spmt/address.hpp"
#include "spmt/profile.hpp"
#include "spmt/sim.hpp"
#include "spmt/single_core.hpp"
#include "support/parse.hpp"
#include "viz/render.hpp"

using namespace tms;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <loop-file> [--scheduler sms|ims|tms] [--unroll U]\n"
               "          [--simulate N] [--baseline N] [--render flat|kernel|exec|dot|all]\n"
               "          [--profile N] [--registers N] [--metrics]\n%s"
               "          [--remote SOCKET] [--deadline-ms N]\n",
               argv0, policy::kMachineFlagsUsage);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  std::string scheduler = "tms";
  std::string render = "kernel";
  machine::SpmtConfig cfg;
  int unroll_factor = 1;
  long long simulate = 0;
  long long baseline = 0;
  long long profile = 0;
  int registers = 0;
  bool metrics = false;
  std::string remote;
  long long deadline_ms = 0;

  for (int i = 2; i < argc; ++i) {
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
    if (a == "--scheduler") {
      scheduler = next("--scheduler");
    } else if (policy::is_machine_flag(a)) {
      if (const auto err = policy::parse_machine_flag(a, next(a.c_str()), cfg)) {
        std::fprintf(stderr, "%s\n", err->c_str());
        return 2;
      }
    } else if (a == "--unroll") {
      int_arg("--unroll", unroll_factor);
    } else if (a == "--simulate") {
      int_arg("--simulate", simulate);
    } else if (a == "--baseline") {
      int_arg("--baseline", baseline);
    } else if (a == "--render") {
      render = next("--render");
    } else if (a == "--profile") {
      int_arg("--profile", profile);
    } else if (a == "--registers") {
      int_arg("--registers", registers);
    } else if (a == "--metrics") {
      metrics = true;
    } else if (a == "--remote") {
      remote = next("--remote");
    } else if (a == "--deadline-ms") {
      int_arg("--deadline-ms", deadline_ms);
    } else {
      return usage(argv[0]);
    }
  }
  if (!driver::known_scheduler(scheduler)) return usage(argv[0]);

  std::ifstream file(argv[1]);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", argv[1]);
    return 1;
  }
  auto parsed = ir::parse_loop(file);
  if (const auto* err = std::get_if<ir::ParseError>(&parsed)) {
    std::fprintf(stderr, "%s:%d: %s\n", argv[1], err->line, err->message.c_str());
    return 1;
  }
  ir::Loop loop = std::get<ir::Loop>(std::move(parsed));
  if (unroll_factor > 1) loop = ir::unroll(loop, unroll_factor);

  machine::MachineModel mach;

  if (profile > 0) {
    const spmt::AddressStreams streams = spmt::default_streams(loop, 42);
    const auto prof = spmt::profile_dependences(loop, streams, profile);
    for (const auto& p : prof) {
      const ir::DepEdge& e = loop.dep(p.edge);
      std::printf("profiled %s -> %s: annotated p=%.3f, measured %.3f (%lld/%lld)\n",
                  loop.instr(e.src).name.c_str(), loop.instr(e.dst).name.c_str(), e.probability,
                  p.frequency(), (long long)p.collisions, (long long)p.producer_executions);
    }
    loop = spmt::apply_profile(loop, prof);
  }

  std::optional<sched::Schedule> schedule;
  if (!remote.empty()) {
    // Delegate scheduling to a running tmsd; rebuild the schedule from
    // the response slots and fall through to the local render/simulate
    // pipeline. Deterministic schedulers make remote == local output.
    if (registers > 0) {
      std::fprintf(stderr, "--registers is not supported with --remote\n");
      return 2;
    }
    serve::Client client;
    if (const auto err = client.connect_unix(remote)) {
      std::fprintf(stderr, "tmsc: %s\n", err->c_str());
      return 1;
    }
    serve::Request req;
    req.scheduler = scheduler;
    serve::set_request_config(req, cfg);
    req.deadline_ms = deadline_ms;
    req.loop = loop;
    auto result = client.compile(req);
    if (const auto* err = std::get_if<std::string>(&result)) {
      std::fprintf(stderr, "tmsc: %s\n", err->c_str());
      return 1;
    }
    const serve::Response& resp = std::get<serve::Response>(result);
    if (!resp.ok) {
      std::fprintf(stderr, "tmsc: server error [%s]: %s (request_id %s)\n",
                   std::string(serve::to_string(resp.code)).c_str(), resp.message.c_str(),
                   resp.request_id.c_str());
      return 1;
    }
    if (resp.slots.size() != static_cast<std::size_t>(loop.num_instrs())) {
      std::fprintf(stderr, "tmsc: response has %zu slots for a %d-instruction loop\n",
                   resp.slots.size(), loop.num_instrs());
      return 1;
    }
    sched::Schedule s(loop, mach, resp.ii);
    for (int v = 0; v < loop.num_instrs(); ++v) {
      s.set_slot(v, resp.slots[static_cast<std::size_t>(v)]);
    }
    if (const auto verr = s.validate()) {
      std::fprintf(stderr, "tmsc: response schedule is invalid: %s\n", verr->c_str());
      return 1;
    }
    std::printf("remote: %s ii=%d mii=%d cache_hit=%d server_ms=%.2f request_id=%s\n",
                resp.scheduler.c_str(), resp.ii, resp.mii, resp.cache_hit ? 1 : 0,
                resp.server_ms, resp.request_id.c_str());
    schedule.emplace(std::move(s));
  } else if (registers > 0) {
    if (scheduler == "tms") {
      if (auto r = sched::tms_schedule_reglimited(loop, mach, cfg, registers)) {
        std::printf("register budget %d: pressure %d after %d II bump(s)\n", registers,
                    r->pressure, r->retries);
        schedule.emplace(std::move(r->schedule));
      }
    } else if (scheduler == "sms") {
      if (auto r = sched::sms_schedule_reglimited(loop, mach, registers)) {
        std::printf("register budget %d: pressure %d after %d II bump(s)\n", registers,
                    r->pressure, r->retries);
        schedule.emplace(std::move(r->schedule));
      }
    } else {
      std::fprintf(stderr, "--registers supports sms and tms only\n");
      return 2;
    }
  } else if (auto c = driver::schedule_loop(loop, mach, cfg, scheduler)) {
    if (c->check_opts.c_delay_threshold >= 0) {
      std::printf("TMS thresholds: C_delay<=%d P_max=%.2f (F=%.2f, %d pairs tried)\n",
                  c->check_opts.c_delay_threshold, c->check_opts.p_max, c->f_value,
                  c->pairs_tried);
    }
    schedule.emplace(std::move(c->schedule));
  }
  if (!schedule.has_value()) {
    std::fprintf(stderr, "scheduling failed\n");
    return 1;
  }

  if (metrics) {
    const sched::LoopMetrics m = sched::measure(*schedule, cfg);
    std::printf("metrics: inst=%d sccs=%d mii=%d ldp=%d ii=%d maxlive=%d c_delay=%d stages=%d "
                "copies=%d pairs=%d P_M=%.4f\n",
                m.num_instrs, m.num_sccs, m.mii, m.ldp, m.ii, m.max_live, m.c_delay, m.stages,
                m.copies, m.comm_pairs, m.misspec_probability);
  }

  if (render == "flat" || render == "all") {
    std::printf("%s", viz::render_flat_schedule(*schedule).c_str());
  }
  if (render == "kernel" || render == "all") {
    std::printf("%s", viz::render_kernel(*schedule, cfg).c_str());
  }
  if (render == "exec" || render == "all") {
    std::printf("%s", viz::render_execution(*schedule, cfg).c_str());
  }
  if (render == "dot" || render == "all") {
    std::printf("%s", viz::render_ddg_dot(loop).c_str());
  }

  if (simulate > 0) {
    const spmt::AddressStreams streams = spmt::default_streams(loop, 42);
    const auto kp = codegen::lower_kernel(*schedule, cfg);
    spmt::SpmtOptions opts;
    opts.iterations = simulate;
    opts.keep_memory = false;
    const auto sim = spmt::run_spmt(loop, kp, cfg, streams, opts);
    std::printf("simulated %lld iterations on %d cores: %lld cycles (%.2f/iter), "
                "sync stalls %lld, SEND/RECV pairs %lld, misspeculations %lld (%.3f%%)\n",
                (long long)simulate, cfg.ncore, (long long)sim.stats.total_cycles,
                static_cast<double>(sim.stats.total_cycles) / static_cast<double>(simulate),
                (long long)sim.stats.sync_stall_cycles, (long long)sim.stats.send_recv_pairs,
                (long long)sim.stats.misspeculations, 100.0 * sim.stats.misspec_frequency());
    if (cfg.policy != machine::AllocPolicy::kModulo || cfg.bus_enabled()) {
      std::printf("policy %s: bus transfers %lld, bus cycles %lld (%d cycles/transfer)\n",
                  std::string(policy::to_string(cfg.policy)).c_str(),
                  (long long)sim.stats.bus_transfers, (long long)sim.stats.bus_cycles,
                  cfg.bus_transfer_cycles());
    }
  }
  if (baseline > 0) {
    const spmt::AddressStreams streams = spmt::default_streams(loop, 42);
    const auto single = spmt::run_single_threaded(loop, mach, cfg, streams, baseline);
    std::printf("single-threaded baseline: %lld cycles for %lld iterations (%.2f/iter, ipc "
                "%.2f)\n",
                (long long)single.total_cycles, (long long)baseline,
                static_cast<double>(single.total_cycles) / static_cast<double>(baseline),
                single.ipc());
  }
  return 0;
}
