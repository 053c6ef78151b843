#include "policy/policy.hpp"

#include <algorithm>
#include <climits>
#include <vector>

#include "obs/counters.hpp"
#include "support/assert.hpp"
#include "support/parse.hpp"

namespace tms::policy {
namespace {

/// The paper's mapping: core k mod ncore, values relayed hop by hop
/// around the ring so a distance-d dependence pays d full SEND/RECV
/// legs (and d bus transfers). With the bus term off this is exactly
/// the pre-policy hardcoded d_ker * c_reg_com.
class ModuloPolicy final : public CorePolicy {
 public:
  explicit ModuloPolicy(const machine::SpmtConfig& cfg)
      : ncore_(cfg.ncore), per_leg_(cfg.c_reg_com + cfg.bus_transfer_cycles()) {}
  machine::AllocPolicy kind() const override { return machine::AllocPolicy::kModulo; }
  int core_of(std::int64_t k) const override { return static_cast<int>(k % ncore_); }
  CommCost comm_cost(int d_ker, std::int64_t) const override {
    if (d_ker <= 0) return {};
    return {static_cast<std::int64_t>(d_ker) * per_leg_, d_ker};
  }
  bool uniform() const override { return true; }

 private:
  std::int64_t ncore_;
  std::int64_t per_leg_;
};

/// core (k * stride) mod ncore. A distance-d dependence is always
/// (d * stride) mod ncore ring positions downstream, delivered in one
/// direct SEND/hops/RECV leg (one bus transfer) — or free when the
/// stride wraps producer and consumer onto the same core.
class RoundRobinStridePolicy final : public CorePolicy {
 public:
  explicit RoundRobinStridePolicy(const machine::SpmtConfig& cfg) : cfg_(cfg) {}
  machine::AllocPolicy kind() const override { return machine::AllocPolicy::kRoundRobinStride; }
  int core_of(std::int64_t k) const override {
    return static_cast<int>((k * cfg_.policy_stride) % cfg_.ncore);
  }
  CommCost comm_cost(int d_ker, std::int64_t) const override {
    if (d_ker <= 0) return {};
    const int hops = static_cast<int>(
        (static_cast<std::int64_t>(d_ker) * cfg_.policy_stride) % cfg_.ncore);
    if (hops == 0) return {};
    return {static_cast<std::int64_t>(cfg_.comm_latency(hops) + cfg_.bus_transfer_cycles()), 1};
  }
  bool uniform() const override { return true; }

 private:
  const machine::SpmtConfig cfg_;
};

/// core (k / block) mod ncore: blocks of `block` consecutive iterations
/// share a core, so short-distance dependences stay on-core (delay 0)
/// and only block-crossing ones pay one forward ring leg. Non-uniform:
/// whether a distance crosses a block boundary depends on k itself.
/// kDepDistance is this mapping with block = dominant_dep_distance, so
/// the loop's most common dependence always lands exactly one hop away.
class BlockPolicy final : public CorePolicy {
 public:
  BlockPolicy(const machine::SpmtConfig& cfg, machine::AllocPolicy kind, int block)
      : cfg_(cfg), kind_(kind), block_(block) {
    TMS_ASSERT(block_ >= 1);
  }
  machine::AllocPolicy kind() const override { return kind_; }
  int core_of(std::int64_t k) const override {
    return static_cast<int>((k / block_) % cfg_.ncore);
  }
  CommCost comm_cost(int d_ker, std::int64_t k) const override {
    if (d_ker <= 0) return {};
    const int src = core_of(k - d_ker);
    const int dst = core_of(k);
    const int hops = (dst - src + cfg_.ncore) % cfg_.ncore;
    if (hops == 0) return {};
    return {static_cast<std::int64_t>(cfg_.comm_latency(hops) + cfg_.bus_transfer_cycles()), 1};
  }
  bool uniform() const override { return false; }

 private:
  const machine::SpmtConfig cfg_;
  const machine::AllocPolicy kind_;
  const std::int64_t block_;
};

}  // namespace

int dominant_dep_distance(const ir::Loop& loop) {
  std::vector<std::pair<int, int>> freq;  // (distance, count), distance-sorted
  for (const ir::DepEdge& e : loop.deps()) {
    if (e.distance < 1) continue;
    auto it = std::lower_bound(freq.begin(), freq.end(), std::make_pair(e.distance, 0));
    if (it != freq.end() && it->first == e.distance) {
      ++it->second;
    } else {
      freq.insert(it, {e.distance, 1});
    }
  }
  int best = 1, best_count = 0;
  for (const auto& [dist, count] : freq) {
    if (count > best_count) {  // ties resolve to the smallest distance
      best = dist;
      best_count = count;
    }
  }
  return best;
}

std::unique_ptr<CorePolicy> make_policy(const machine::SpmtConfig& cfg, const ir::Loop& loop) {
  cfg.check();
  obs::counters().policy_instances.add(1);
  if (cfg.policy != machine::AllocPolicy::kModulo) obs::counters().policy_nondefault.add(1);
  switch (cfg.policy) {
    case machine::AllocPolicy::kModulo:
      return std::make_unique<ModuloPolicy>(cfg);
    case machine::AllocPolicy::kRoundRobinStride:
      return std::make_unique<RoundRobinStridePolicy>(cfg);
    case machine::AllocPolicy::kLocality:
      return std::make_unique<BlockPolicy>(cfg, machine::AllocPolicy::kLocality,
                                           cfg.policy_block);
    case machine::AllocPolicy::kDepDistance:
      return std::make_unique<BlockPolicy>(cfg, machine::AllocPolicy::kDepDistance,
                                           dominant_dep_distance(loop));
  }
  TMS_ASSERT(false && "unreachable: unknown AllocPolicy");
  return nullptr;
}

std::string_view to_string(machine::AllocPolicy p) {
  switch (p) {
    case machine::AllocPolicy::kModulo: return "modulo";
    case machine::AllocPolicy::kRoundRobinStride: return "round_robin_stride";
    case machine::AllocPolicy::kLocality: return "locality";
    case machine::AllocPolicy::kDepDistance: return "dep_distance";
  }
  return "modulo";
}

bool policy_from_string(std::string_view s, machine::AllocPolicy& out) {
  if (s == "modulo") {
    out = machine::AllocPolicy::kModulo;
  } else if (s == "round_robin_stride") {
    out = machine::AllocPolicy::kRoundRobinStride;
  } else if (s == "locality") {
    out = machine::AllocPolicy::kLocality;
  } else if (s == "dep_distance") {
    out = machine::AllocPolicy::kDepDistance;
  } else {
    return false;
  }
  return true;
}

const char kMachineFlagsUsage[] =
    "          [--ncore N] [--policy modulo|round_robin_stride|locality|dep_distance]\n"
    "          [--policy-stride N] [--policy-block N] [--bus-bytes N] [--bus-bandwidth N]\n";

namespace {

/// The integer machine knobs: flag, name, field and range — the one place
/// these bounds are written.
struct IntKnob {
  std::string_view flag;
  const char* name;
  int machine::SpmtConfig::*field;
  int lo, hi;
};

constexpr IntKnob kIntKnobs[] = {
    {"--ncore", "ncore", &machine::SpmtConfig::ncore, 1, 1024},
    {"--policy-stride", "policy_stride", &machine::SpmtConfig::policy_stride, 1, INT_MAX},
    {"--policy-block", "policy_block", &machine::SpmtConfig::policy_block, 1, INT_MAX},
    {"--bus-bytes", "bus_bytes_per_transfer", &machine::SpmtConfig::bus_bytes_per_transfer, 0,
     INT_MAX},
    {"--bus-bandwidth", "bus_bytes_per_cycle", &machine::SpmtConfig::bus_bytes_per_cycle, 1,
     INT_MAX},
};

}  // namespace

bool is_machine_flag(std::string_view flag) {
  return flag == "--policy" || std::any_of(std::begin(kIntKnobs), std::end(kIntKnobs),
                                           [&](const IntKnob& k) { return k.flag == flag; });
}

std::optional<std::string> parse_machine_flag(std::string_view flag, std::string_view value,
                                              machine::SpmtConfig& cfg) {
  if (flag == "--policy") {
    if (policy_from_string(value, cfg.policy)) return std::nullopt;
    return "unknown policy '" + std::string(value) + "'";
  }
  for (const IntKnob& k : kIntKnobs) {
    if (k.flag != flag) continue;
    if (auto err = support::parse_int_flag(flag, value, cfg.*k.field)) return err;
    if (const auto err = machine_config_error(cfg)) return std::string(flag) + ": " + *err;
    return std::nullopt;
  }
  return "unknown machine flag '" + std::string(flag) + "'";
}

std::optional<std::string> machine_config_error(const machine::SpmtConfig& cfg) {
  for (const IntKnob& k : kIntKnobs) {
    const int v = cfg.*k.field;
    if (v < k.lo || v > k.hi) {
      std::string out = std::string(k.name) + " " + std::to_string(v) + " out of range [" +
                        std::to_string(k.lo) + ", ";
      out += k.hi == INT_MAX ? std::string("inf)") : std::to_string(k.hi) + "]";
      return out;
    }
  }
  return std::nullopt;
}

}  // namespace tms::policy
