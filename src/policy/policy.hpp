// Pluggable iteration→core allocation policies (docs/POLICY.md).
//
// The paper fixes the mapping at "thread k runs on core k mod ncore" and
// prices every cross-thread register dependence at d_ker hops of ring
// relay. The thread-to-core allocation literature (Navarro et al.) shows
// the mapping alone is worth double-digit percent, and a shared-bus
// contention term (Eremeev et al.) changes which mapping wins — so both
// become machine knobs here: machine::SpmtConfig names the policy and
// the bus parameters, and this library turns them into behaviour.
//
// A CorePolicy answers exactly two questions, and both simulator engines
// (spmt/sim.cpp, spmt/event_sim.cpp) route every placement and every
// forwarding delay through it:
//   core_of(k)        which core runs thread/iteration k
//   comm_cost(d, k)   cycles (and bus transfers) to deliver a value
//                     produced d threads upstream to consumer thread k
//
// The modulo policy reproduces the legacy hardcoded behaviour bit-exactly
// when the bus term is off — enforced by tests/policy_test.cpp and the
// golden stats pinned in tests/event_sim_test.cpp.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "ir/loop.hpp"
#include "machine/spmt_config.hpp"

namespace tms::policy {

/// Cost of delivering one cross-thread register value to its consumer.
struct CommCost {
  std::int64_t delay = 0;      ///< cycles after producer completion
  std::int64_t transfers = 0;  ///< shared-bus transfers charged
};

class CorePolicy {
 public:
  virtual ~CorePolicy() = default;
  virtual machine::AllocPolicy kind() const = 0;

  /// Which core runs thread/iteration k (k >= 0).
  virtual int core_of(std::int64_t k) const = 0;

  /// Delivery cost of a value produced d_ker threads upstream of
  /// consumer thread k. delay == 0 exactly when producer and consumer
  /// land on the same core (no SEND/RECV, no bus occupancy).
  virtual CommCost comm_cost(int d_ker, std::int64_t k) const = 0;

  /// True when comm_cost depends only on d_ker, never on k. Uniform
  /// policies let the event engine keep its precomputed per-input costs;
  /// non-uniform ones are queried per access.
  virtual bool uniform() const = 0;
};

/// Most frequent cross-iteration dependence distance of `loop` (ties go
/// to the smallest); 1 when the loop carries no cross-iteration
/// dependence. This is kDepDistance's block size: iterations k and k-D
/// then always share a core boundary exactly one ring hop apart.
int dominant_dep_distance(const ir::Loop& loop);

/// Policy factory. `loop` feeds kDepDistance's dominant-distance choice;
/// the other policies ignore it. Bumps the policy.* obs counters.
std::unique_ptr<CorePolicy> make_policy(const machine::SpmtConfig& cfg, const ir::Loop& loop);

/// "modulo", "round_robin_stride", "locality", "dep_distance".
std::string_view to_string(machine::AllocPolicy p);
/// Inverse of to_string; false when `s` names no policy.
bool policy_from_string(std::string_view s, machine::AllocPolicy& out);

// --- Machine flags ---------------------------------------------------------
//
// tmsc, tmsbatch, tmsd and loadgen take the same six machine flags
// (--ncore, --policy, --policy-stride, --policy-block, --bus-bytes,
// --bus-bandwidth), parse them here into a machine::SpmtConfig and print
// kMachineFlagsUsage in their usage text. tmsd refuses --ncore: every
// request carries its own.

/// Usage lines for the six machine flags.
extern const char kMachineFlagsUsage[];

/// True when `flag` is one of the six machine flags.
bool is_machine_flag(std::string_view flag);

/// Stores the value of a machine flag into `cfg`.
/// Returns a one-line error when the value is not a policy name or an
/// integer, or when machine_config_error rejects it.
std::optional<std::string> parse_machine_flag(std::string_view flag, std::string_view value,
                                              machine::SpmtConfig& cfg);

/// The ranges every machine knob a command line or a request can set must
/// lie in: ncore 1..1024, policy_stride and policy_block >= 1,
/// bus_bytes_per_transfer >= 0, bus_bytes_per_cycle >= 1. CompileService
/// admission and parse_machine_flag both enforce them through this
/// function. nullopt when every knob is in range, else the first
/// violation, e.g. "ncore 0 out of range [1, 1024]".
std::optional<std::string> machine_config_error(const machine::SpmtConfig& cfg);

}  // namespace tms::policy
