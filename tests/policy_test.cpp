// The pluggable core-allocation policy subsystem (src/policy,
// docs/POLICY.md): iteration->core maps, policy-priced communication
// costs, the dominant-dependence-distance heuristic, the name codec, and
// the two identity contracts the rest of the tree leans on — the modulo
// policy with the bus off prices forwarding exactly like the pre-policy
// relay model, and default-policy configs mint byte-identical schedule
// cache keys and wire requests — plus the machine-flag parser the tools
// share and the request <-> config mapping.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <variant>

#include "codegen/kernel_program.hpp"
#include "driver/compile.hpp"
#include "driver/schedule_cache.hpp"
#include "obs/counters.hpp"
#include "policy/policy.hpp"
#include "serve/message.hpp"
#include "spmt/address.hpp"
#include "spmt/sim.hpp"
#include "test_util.hpp"
#include "workloads/doacross.hpp"

namespace tms {
namespace {

machine::SpmtConfig make_cfg(machine::AllocPolicy pol, int ncore = 8) {
  machine::SpmtConfig cfg;
  cfg.ncore = ncore;
  cfg.policy = pol;
  return cfg;
}

TEST(Policy, ModuloMapsIterationsRoundRobin) {
  const ir::Loop loop = test::tiny_recurrence();
  const machine::SpmtConfig cfg = make_cfg(machine::AllocPolicy::kModulo);
  const auto pol = policy::make_policy(cfg, loop);
  EXPECT_EQ(pol->kind(), machine::AllocPolicy::kModulo);
  EXPECT_TRUE(pol->uniform());
  for (std::int64_t k = 0; k < 100; ++k) {
    EXPECT_EQ(pol->core_of(k), static_cast<int>(k % cfg.ncore));
  }
}

TEST(Policy, ModuloBusOffPricesLikeLegacyRelay) {
  // The pre-policy simulator charged d_ker * c_reg_com for a
  // distance-d_ker forward; the modulo policy must reproduce that
  // exactly when the bus term is off (the byte-identity contract).
  const ir::Loop loop = test::tiny_recurrence();
  const machine::SpmtConfig cfg = make_cfg(machine::AllocPolicy::kModulo);
  ASSERT_FALSE(cfg.bus_enabled());
  const auto pol = policy::make_policy(cfg, loop);
  for (int d = 0; d <= 6; ++d) {
    const policy::CommCost c = pol->comm_cost(d, /*k=*/17);
    if (d <= 0) {
      EXPECT_EQ(c.delay, 0);
      EXPECT_EQ(c.transfers, 0);
    } else {
      EXPECT_EQ(c.delay, static_cast<std::int64_t>(d) * cfg.c_reg_com);
      EXPECT_EQ(c.transfers, d);
    }
  }
}

TEST(Policy, RoundRobinStrideMapsAndPrices) {
  const ir::Loop loop = test::tiny_recurrence();
  machine::SpmtConfig cfg = make_cfg(machine::AllocPolicy::kRoundRobinStride);
  cfg.policy_stride = 3;
  const auto pol = policy::make_policy(cfg, loop);
  EXPECT_TRUE(pol->uniform());
  for (std::int64_t k = 0; k < 64; ++k) {
    EXPECT_EQ(pol->core_of(k), static_cast<int>((k * 3) % cfg.ncore));
  }
  // hops = (d * stride) mod ncore; 0 hops (same core) is free, otherwise
  // one ring traversal of that many hops plus the bus charge (off here).
  for (int d = 0; d <= 8; ++d) {
    const policy::CommCost c = pol->comm_cost(d, /*k=*/5);
    const int hops = d <= 0 ? 0 : (d * 3) % cfg.ncore;
    if (hops == 0) {
      EXPECT_EQ(c.delay, 0) << d;
      EXPECT_EQ(c.transfers, 0) << d;
    } else {
      EXPECT_EQ(c.delay, cfg.comm_latency(hops)) << d;
      EXPECT_EQ(c.transfers, 1) << d;
    }
  }
}

TEST(Policy, LocalityKeepsBlocksOnOneCore) {
  const ir::Loop loop = test::tiny_recurrence();
  machine::SpmtConfig cfg = make_cfg(machine::AllocPolicy::kLocality);
  cfg.policy_block = 4;
  const auto pol = policy::make_policy(cfg, loop);
  EXPECT_FALSE(pol->uniform());
  for (std::int64_t k = 0; k < 128; ++k) {
    EXPECT_EQ(pol->core_of(k), static_cast<int>((k / 4) % cfg.ncore));
  }
  // Inside a block a distance-1 forward never leaves the core.
  EXPECT_EQ(pol->comm_cost(1, /*k=*/2).delay, 0);
  EXPECT_EQ(pol->comm_cost(1, 2).transfers, 0);
  // Across the block boundary it is exactly one ring hop.
  const policy::CommCost edge = pol->comm_cost(1, /*k=*/4);
  EXPECT_EQ(edge.delay, cfg.comm_latency(1));
  EXPECT_EQ(edge.transfers, 1);
}

TEST(Policy, DominantDepDistancePicksMostFrequent) {
  ir::Loop loop("dom");
  const ir::NodeId a = loop.add_instr(ir::Opcode::kFAdd, "a");
  const ir::NodeId b = loop.add_instr(ir::Opcode::kFMul, "b");
  loop.add_reg_flow(a, b, 0);  // intra-iteration: ignored
  loop.add_reg_flow(a, a, 2);
  loop.add_reg_flow(b, b, 2);
  loop.add_reg_flow(b, a, 3);
  EXPECT_EQ(policy::dominant_dep_distance(loop), 2);
  // No cross-iteration dependence at all: fall back to 1.
  EXPECT_EQ(policy::dominant_dep_distance(test::tiny_doall()), 1);
}

TEST(Policy, DepDistanceMakesDominantDependenceOneHop) {
  // Blocking by the dominant distance D places producer iteration k-D on
  // the neighbouring core of iteration k's, for every k >= D.
  ir::Loop loop("dom4");
  const ir::NodeId a = loop.add_instr(ir::Opcode::kFAdd, "a");
  loop.add_reg_flow(a, a, 4);
  machine::SpmtConfig cfg = make_cfg(machine::AllocPolicy::kDepDistance);
  const auto pol = policy::make_policy(cfg, loop);
  EXPECT_FALSE(pol->uniform());
  for (std::int64_t k = 4; k < 200; ++k) {
    const policy::CommCost c = pol->comm_cost(4, k);
    EXPECT_EQ(c.delay, cfg.comm_latency(1)) << k;
    EXPECT_EQ(c.transfers, 1) << k;
  }
}

TEST(Policy, NameCodecRoundTrips) {
  const machine::AllocPolicy all[] = {
      machine::AllocPolicy::kModulo, machine::AllocPolicy::kRoundRobinStride,
      machine::AllocPolicy::kLocality, machine::AllocPolicy::kDepDistance};
  for (const machine::AllocPolicy p : all) {
    machine::AllocPolicy back;
    ASSERT_TRUE(policy::policy_from_string(policy::to_string(p), back));
    EXPECT_EQ(back, p);
  }
  machine::AllocPolicy out;
  EXPECT_FALSE(policy::policy_from_string("ring", out));
  EXPECT_FALSE(policy::policy_from_string("", out));
}

TEST(Policy, BusTransferCyclesScaleWithCoreCount) {
  machine::SpmtConfig cfg;
  EXPECT_FALSE(cfg.bus_enabled());
  EXPECT_EQ(cfg.bus_transfer_cycles(), 0);
  EXPECT_EQ(cfg.reg_comm_cycles(), cfg.c_reg_com);

  cfg.bus_bytes_per_transfer = 8;
  cfg.bus_bytes_per_cycle = 16;
  cfg.ncore = 4;
  EXPECT_EQ(cfg.bus_transfer_cycles(), 2);  // ceil(8*4/16)
  cfg.ncore = 32;
  EXPECT_EQ(cfg.bus_transfer_cycles(), 16);  // ceil(8*32/16)
  EXPECT_EQ(cfg.reg_comm_cycles(), cfg.c_reg_com + 16);
  EXPECT_EQ(cfg.min_c_delay(), 1 + cfg.c_reg_com + 16);
}

TEST(Policy, MakePolicyCountsInstances) {
  const ir::Loop loop = test::tiny_recurrence();
  const std::uint64_t before = obs::counters().policy_instances.value();
  const std::uint64_t nondefault_before = obs::counters().policy_nondefault.value();
  (void)policy::make_policy(make_cfg(machine::AllocPolicy::kModulo), loop);
  (void)policy::make_policy(make_cfg(machine::AllocPolicy::kLocality), loop);
  EXPECT_EQ(obs::counters().policy_instances.value(), before + 2);
  EXPECT_EQ(obs::counters().policy_nondefault.value(), nondefault_before + 1);
}

TEST(Policy, CacheKeyIsPolicyAndBusSensitiveButDefaultStable) {
  const ir::Loop loop = test::tiny_recurrence();
  const machine::MachineModel mach;
  machine::SpmtConfig def;
  const std::string base = driver::ScheduleCache::key_string(loop, mach, def, "tms");
  // A default config mints the pre-policy key text: no policy/bus lines.
  EXPECT_EQ(base.find("policy"), std::string::npos);
  EXPECT_EQ(base.find("bus"), std::string::npos);

  machine::SpmtConfig pol = def;
  pol.policy = machine::AllocPolicy::kLocality;
  pol.policy_block = 4;
  EXPECT_NE(driver::ScheduleCache::key_string(loop, mach, pol, "tms"), base);

  machine::SpmtConfig bus = def;
  bus.bus_bytes_per_transfer = 8;
  EXPECT_NE(driver::ScheduleCache::key_string(loop, mach, bus, "tms"), base);
  EXPECT_NE(driver::ScheduleCache::key(loop, mach, bus, "tms"),
            driver::ScheduleCache::key(loop, mach, def, "tms"));
}

TEST(Policy, RequestWireOmitsDefaultsAndRoundTrips) {
  serve::Request req;
  req.id = 7;
  req.loop = test::tiny_recurrence();
  const std::string plain = serve::serialise_request(req);
  EXPECT_EQ(plain.find("policy"), std::string::npos);
  EXPECT_EQ(plain.find("bus_"), std::string::npos);

  req.policy = machine::AllocPolicy::kDepDistance;
  req.policy_stride = 2;
  req.policy_block = 3;
  req.bus_bytes_per_transfer = 8;
  req.bus_bytes_per_cycle = 32;
  const std::string wire = serve::serialise_request(req);
  EXPECT_NE(wire.find("policy dep_distance"), std::string::npos);
  auto parsed = serve::parse_request(wire);
  const auto* back = std::get_if<serve::Request>(&parsed);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->policy, machine::AllocPolicy::kDepDistance);
  EXPECT_EQ(back->policy_stride, 2);
  EXPECT_EQ(back->policy_block, 3);
  EXPECT_EQ(back->bus_bytes_per_transfer, 8);
  EXPECT_EQ(back->bus_bytes_per_cycle, 32);
  EXPECT_EQ(serve::serialise_request(*back), wire);  // fixpoint

  auto bad = serve::parse_request("tmsq-request v1\nid 1\npolicy ring\nloop\n");
  EXPECT_NE(std::get_if<std::string>(&bad), nullptr);
}

/// Simulated cycles of `loop` on 32 cores with the shared bus at 8 bytes
/// per transfer, under `policy` (locality: blocks of 4), scheduled by
/// `scheduler` under that same config: the policy prices forwards, so it
/// moves C1 and with it the schedule.
std::int64_t bus_priced_cycles(const ir::Loop& loop, machine::AllocPolicy policy,
                               const char* scheduler) {
  const machine::MachineModel mach;
  machine::SpmtConfig cfg;
  cfg.ncore = 32;
  cfg.policy = policy;
  cfg.policy_block = 4;
  cfg.bus_bytes_per_transfer = 8;
  const auto compiled = driver::schedule_loop(loop, mach, cfg, scheduler);
  EXPECT_TRUE(compiled.has_value()) << loop.name() << " " << scheduler;
  if (!compiled.has_value()) return -1;
  spmt::SpmtOptions opts;
  opts.iterations = 20000;
  opts.keep_memory = false;
  return spmt::run_spmt(loop, codegen::lower_kernel(compiled->schedule, cfg), cfg,
                        spmt::default_streams(loop, 1), opts)
      .stats.total_cycles;
}

TEST(Policy, TheBestPolicyDependsOnTheLoop) {
  const ir::Loop* art = nullptr;
  const ir::Loop* lucas = nullptr;
  const std::vector<workloads::SelectedLoop> table3 = workloads::doacross_selected_loops();
  for (const workloads::SelectedLoop& s : table3) {
    if (s.loop.name() == "art_sel0") art = &s.loop;
    if (s.loop.name() == "lucas_sel") lucas = &s.loop;
  }
  ASSERT_NE(art, nullptr);
  ASSERT_NE(lucas, nullptr);
  // art_sel0 is parallel: the modulo ring overlaps every iteration with
  // its neighbours, while locality runs each block of four one after
  // another on one core (421,919 vs 892,105 cycles).
  const std::int64_t art_modulo = bus_priced_cycles(*art, machine::AllocPolicy::kModulo, "tms");
  const std::int64_t art_locality =
      bus_priced_cycles(*art, machine::AllocPolicy::kLocality, "tms");
  EXPECT_LT(art_modulo, art_locality);
  // lucas_sel's probability-1.0 loop-carried memory flow serialises its
  // iterations whatever the placement, so locality gives up no
  // parallelism, and the three of every four forwards it keeps off the
  // bus are what it saves: 1,416,939 vs 1,628,747 cycles (13%). Were they
  // charged like the ring's, it would save 0.1%. Its SMS schedule stands
  // in for the TMS one, which takes seconds to find at ncore 32.
  const std::int64_t lucas_modulo =
      bus_priced_cycles(*lucas, machine::AllocPolicy::kModulo, "sms");
  const std::int64_t lucas_locality =
      bus_priced_cycles(*lucas, machine::AllocPolicy::kLocality, "sms");
  EXPECT_LT(lucas_locality, lucas_modulo * 9 / 10);
}

TEST(MachineFlags, ParsesEveryFlagIntoTheConfig) {
  machine::SpmtConfig cfg;
  const std::pair<const char*, const char*> flags[] = {
      {"--ncore", "16"},       {"--policy", "locality"}, {"--policy-stride", "3"},
      {"--policy-block", "4"}, {"--bus-bytes", "8"},     {"--bus-bandwidth", "32"},
  };
  for (const auto& [flag, value] : flags) {
    EXPECT_EQ(policy::parse_machine_flag(flag, value, cfg), std::nullopt) << flag;
    EXPECT_TRUE(policy::is_machine_flag(flag)) << flag;
  }
  EXPECT_EQ(cfg.ncore, 16);
  EXPECT_EQ(cfg.policy, machine::AllocPolicy::kLocality);
  EXPECT_EQ(cfg.policy_stride, 3);
  EXPECT_EQ(cfg.policy_block, 4);
  EXPECT_EQ(cfg.bus_bytes_per_transfer, 8);
  EXPECT_EQ(cfg.bus_bytes_per_cycle, 32);
  EXPECT_FALSE(policy::is_machine_flag("--scheduler"));
}

TEST(MachineFlags, RejectsMalformedAndOutOfRangeValues) {
  const std::pair<const char*, const char*> bad[] = {
      {"--ncore", "0"},          {"--ncore", "1025"},       {"--ncore", "abc"},
      {"--ncore", ""},           {"--ncore", "4x"},         {"--ncore", "99999999999"},
      {"--policy", "ring"},      {"--policy-stride", "0"},  {"--policy-block", "-1"},
      {"--bus-bytes", "-1"},     {"--bus-bandwidth", "0"},  {"--bus-bandwidth", "1.5"},
  };
  for (const auto& [flag, value] : bad) {
    machine::SpmtConfig cfg;
    EXPECT_NE(policy::parse_machine_flag(flag, value, cfg), std::nullopt)
        << flag << " " << value;
  }
  machine::SpmtConfig cfg;
  EXPECT_EQ(policy::parse_machine_flag("--ncore", "1024", cfg), std::nullopt);
  EXPECT_EQ(policy::parse_machine_flag("--bus-bytes", "0", cfg), std::nullopt);
}

TEST(MachineFlags, ConfigErrorNamesTheFirstKnobOutOfRange) {
  EXPECT_EQ(policy::machine_config_error(machine::SpmtConfig{}), std::nullopt);
  machine::SpmtConfig cfg;
  cfg.policy_stride = 0;
  EXPECT_EQ(policy::machine_config_error(cfg), "policy_stride 0 out of range [1, inf)");
  cfg.ncore = 2048;
  EXPECT_EQ(policy::machine_config_error(cfg), "ncore 2048 out of range [1, 1024]");
}

TEST(MachineFlags, RequestConfigAppliesDefaultsOnlyToWireDefaultFields) {
  machine::SpmtConfig defaults;
  defaults.policy = machine::AllocPolicy::kLocality;
  defaults.policy_block = 4;
  defaults.bus_bytes_per_transfer = 8;
  defaults.c_spn = 9;
  defaults.l2_miss = 200;

  serve::Request req;
  req.ncore = 16;
  req.bus_bytes_per_transfer = 16;
  const machine::SpmtConfig cfg = serve::request_config(req, defaults);
  EXPECT_EQ(cfg.ncore, 16) << "ncore always comes from the request";
  EXPECT_EQ(cfg.policy, machine::AllocPolicy::kLocality);
  EXPECT_EQ(cfg.policy_block, 4);
  EXPECT_EQ(cfg.bus_bytes_per_transfer, 16) << "a non-default request field wins";
  EXPECT_EQ(cfg.c_spn, machine::SpmtConfig{}.c_spn) << "only the policy/bus defaults apply";
  EXPECT_EQ(cfg.l2_miss, machine::SpmtConfig{}.l2_miss);

  // Config -> request -> config is the identity on the wire-carried knobs.
  machine::SpmtConfig want;
  want.ncore = 8;
  want.policy = machine::AllocPolicy::kRoundRobinStride;
  want.policy_stride = 3;
  want.bus_bytes_per_cycle = 32;
  serve::Request back;
  serve::set_request_config(back, want);
  EXPECT_EQ(driver::ScheduleCache::key_string(req.loop, machine::MachineModel{},
                                              serve::request_config(back), "tms"),
            driver::ScheduleCache::key_string(req.loop, machine::MachineModel{}, want, "tms"));
}

}  // namespace
}  // namespace tms
