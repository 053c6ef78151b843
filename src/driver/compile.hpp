// The compile pipeline: the one place a (loop, config, scheduler) turns
// into a validated schedule.
//
// schedule_loop is the only scheduler-name dispatch; run_batch,
// CompileService (tmsd), tmsc, tmsfuzz and loadgen --verify all call it.
// The cache-aware consumers (run_batch, CompileService) share one cache
// flow on top of it:
//
//   1. compute the ScheduleCache key and look it up;
//   2. rebuild the schedule from the entry's (II, slots) — an entry whose
//      slots break the modulo constraints counts as a miss;
//   3. on a local miss, ask the peer-fill hook (tmsd's ring siblings); a
//      peer hit is inserted locally;
//   4. otherwise schedule fresh and insert the result;
//   5. validate — always on a cache hit (the defence against semantic
//      corruption of a persisted entry), otherwise only when asked;
//   6. a hit that fails validation is recomputed once, overwrites its
//      entry and is validated again.
//
// Steps 1-4 (compile_schedule) and 5-6 (compile_validate) are separate
// calls so the service can time, trace and deadline-check each half;
// compile() runs both.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "check/validate.hpp"
#include "driver/schedule_cache.hpp"
#include "ir/loop.hpp"
#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"
#include "sched/schedule.hpp"

namespace tms::driver {

/// A schedule plus what the validator needs to re-check it.
struct Compiled {
  sched::Schedule schedule;
  check::CheckOptions check_opts;  ///< TMS acceptance thresholds; disabled for SMS/IMS
  int mii = 0;
  double f_value = 0.0;  ///< TMS F(II, C_delay); 0 for SMS/IMS and cache hits
  int pairs_tried = 0;   ///< TMS (II, C_delay) pairs attempted; 0 for SMS/IMS and cache hits
};

/// True for the names schedule_loop accepts: "sms", "ims" and "tms".
bool known_scheduler(std::string_view name);

/// Runs SMS, IMS or TMS on `loop`. nullopt when the scheduler found no
/// schedule; throws std::invalid_argument on an unknown name.
std::optional<Compiled> schedule_loop(const ir::Loop& loop, const machine::MachineModel& mach,
                                      const machine::SpmtConfig& cfg,
                                      std::string_view scheduler);

/// Cache peer-fill hook: given a schedule-cache key and the expected
/// slot count, ask ring siblings (via serve::Client::peek) whether one of
/// them already holds the entry. Called on compile workers, concurrently;
/// must be thread-safe. nullopt = no sibling had it.
using PeerFillFn =
    std::function<std::optional<ScheduleCache::Entry>(std::uint64_t key, int expect_instrs)>;

/// What to compile, and where to look before scheduling.
struct CompileRequest {
  const ir::Loop& loop;
  const machine::MachineModel& mach;
  const machine::SpmtConfig& cfg;
  std::string_view scheduler;
  ScheduleCache* cache = nullptr;         ///< null: always schedule fresh
  const PeerFillFn* peer_fill = nullptr;  ///< consulted on a local miss; needs a cache
};

enum class CompileStatus {
  kOk,
  kScheduleFail,  ///< the scheduler found no schedule
  kValidateFail,  ///< check::validate_schedule rejected the schedule
};

struct CompileResult {
  CompileStatus status = CompileStatus::kOk;
  std::string detail;                ///< failure message; empty when ok
  std::optional<Compiled> compiled;  ///< empty only on kScheduleFail
  bool cache_hit = false;            ///< came from the local cache or a peer
  std::uint64_t key = 0;             ///< the ScheduleCache key; 0 without a cache
};

/// Steps 1-4. Unknown scheduler names throw std::invalid_argument.
CompileResult compile_schedule(const CompileRequest& req);

/// Whether step 5 runs on `r`: when it is kOk and either `validate` is
/// set or it is a cache hit.
bool needs_validation(const CompileResult& r, bool validate);

/// Steps 5-6 on the result of compile_schedule; a no-op unless
/// needs_validation(r, validate).
void compile_validate(const CompileRequest& req, CompileResult& r, bool validate);

/// compile_schedule, then compile_validate.
CompileResult compile(const CompileRequest& req, bool validate);

}  // namespace tms::driver
