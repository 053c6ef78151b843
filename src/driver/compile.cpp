#include "driver/compile.hpp"

#include <stdexcept>
#include <utility>

#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sched/ims.hpp"
#include "sched/sms.hpp"
#include "sched/tms.hpp"

namespace tms::driver {

namespace {

/// Step 2: the schedule a cache entry describes; nullopt when its slots
/// violate the modulo constraints.
std::optional<Compiled> rebuild(const ir::Loop& loop, const machine::MachineModel& mach,
                                const ScheduleCache::Entry& e) {
  sched::Schedule s(loop, mach, e.ii);
  for (int v = 0; v < loop.num_instrs(); ++v) {
    s.set_slot(v, e.slots[static_cast<std::size_t>(v)]);
  }
  if (s.validate().has_value()) return std::nullopt;
  Compiled out{std::move(s), {}, e.mii};
  out.check_opts.c_delay_threshold = e.c_delay_threshold;
  out.check_opts.p_max = e.p_max;
  return out;
}

ScheduleCache::Entry to_entry(const Compiled& c, std::string_view scheduler) {
  ScheduleCache::Entry e;
  e.scheduler = std::string(scheduler);
  e.ii = c.schedule.ii();
  e.mii = c.mii;
  e.c_delay_threshold = c.check_opts.c_delay_threshold;
  e.p_max = c.check_opts.p_max;
  const int n = c.schedule.loop().num_instrs();
  e.slots.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) e.slots.push_back(c.schedule.slot(v));
  return e;
}

/// Step 4 (and step 6's recompute): schedule fresh, cache the result.
/// False, with the failure recorded in `r`, when no schedule was found.
bool schedule_and_insert(const CompileRequest& req, CompileResult& r) {
  r.compiled = schedule_loop(req.loop, req.mach, req.cfg, req.scheduler);
  if (!r.compiled.has_value()) {
    r.status = CompileStatus::kScheduleFail;
    r.detail = std::string(req.scheduler) + " found no schedule";
    return false;
  }
  if (req.cache != nullptr) {
    req.cache->insert(r.key, to_entry(*r.compiled, req.scheduler));
    obs::counters().driver_schedules_cached.add(1);
  }
  return true;
}

}  // namespace

bool known_scheduler(std::string_view name) {
  return name == "sms" || name == "ims" || name == "tms";
}

std::optional<Compiled> schedule_loop(const ir::Loop& loop, const machine::MachineModel& mach,
                                      const machine::SpmtConfig& cfg,
                                      std::string_view scheduler) {
  if (scheduler == "sms") {
    if (auto r = sched::sms_schedule(loop, mach)) {
      return Compiled{std::move(r->schedule), {}, r->mii};
    }
    return std::nullopt;
  }
  if (scheduler == "ims") {
    if (auto r = sched::ims_schedule(loop, mach)) {
      return Compiled{std::move(r->schedule), {}, r->mii};
    }
    return std::nullopt;
  }
  if (scheduler == "tms") {
    if (auto r = sched::tms_schedule(loop, mach, cfg)) {
      Compiled out{std::move(r->schedule), {}, r->mii, r->f_value, r->pairs_tried};
      out.check_opts.c_delay_threshold = r->c_delay_threshold;
      out.check_opts.p_max = r->p_max;
      return out;
    }
    return std::nullopt;
  }
  throw std::invalid_argument("unknown scheduler '" + std::string(scheduler) + "'");
}

CompileResult compile_schedule(const CompileRequest& req) {
  CompileResult r;
  const int n = req.loop.num_instrs();
  if (req.cache != nullptr) {
    r.key = ScheduleCache::key(req.loop, req.mach, req.cfg, req.scheduler);
    if (const auto entry = req.cache->lookup(r.key, n)) {
      r.compiled = rebuild(req.loop, req.mach, *entry);
    }
    r.cache_hit = r.compiled.has_value();
    obs::counters().driver_cache_hits.add(r.cache_hit ? 1 : 0);
    obs::counters().driver_cache_misses.add(r.cache_hit ? 0 : 1);

    // Local miss: before paying for a fresh scheduling pass, ask ring
    // siblings whether one of them already computed this key. Only tmsd
    // wires a peer-fill hook, so the span and counters keep serve.* names.
    if (!r.cache_hit && req.peer_fill != nullptr && *req.peer_fill) {
      TMS_TRACE_SPAN(pf_span, "serve", "serve.peer_fill");
      if (const auto entry = (*req.peer_fill)(r.key, n)) {
        r.compiled = rebuild(req.loop, req.mach, *entry);
      }
      r.cache_hit = r.compiled.has_value();
      if (r.cache_hit) {
        req.cache->insert(r.key, to_entry(*r.compiled, req.scheduler));
        obs::counters().serve_peer_fill_hits.add(1);
      } else {
        obs::counters().serve_peer_fill_misses.add(1);
      }
      TMS_TRACE_SPAN_ARG(pf_span, obs::targ("hit", std::int64_t{r.cache_hit ? 1 : 0}));
    }
  }
  if (!r.cache_hit) schedule_and_insert(req, r);
  return r;
}

bool needs_validation(const CompileResult& r, bool validate) {
  return r.status == CompileStatus::kOk && (validate || r.cache_hit);
}

void compile_validate(const CompileRequest& req, CompileResult& r, bool validate) {
  if (!needs_validation(r, validate)) return;
  check::CheckReport report =
      check::validate_schedule(r.compiled->schedule, req.cfg, r.compiled->check_opts);
  if (!report.ok() && r.cache_hit) {
    // A corrupt entry that still satisfied the dependence constraints:
    // recompute from scratch, once; the insert overwrites the entry.
    r.cache_hit = false;
    if (!schedule_and_insert(req, r)) return;
    report = check::validate_schedule(r.compiled->schedule, req.cfg, r.compiled->check_opts);
  }
  if (!report.ok()) {
    r.status = CompileStatus::kValidateFail;
    r.detail = "validator: " + report.to_string();
  }
}

CompileResult compile(const CompileRequest& req, bool validate) {
  CompileResult r = compile_schedule(req);
  compile_validate(req, r, validate);
  return r;
}

}  // namespace tms::driver
