#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cost/cost_model.hpp"
#include "obs/counters.hpp"
#include "sched/mii.hpp"
#include "sched/mrt.hpp"
#include "sched/sms.hpp"
#include "sched/tms.hpp"
#include "support/rng.hpp"
#include "test_util.hpp"
#include "workloads/builder.hpp"
#include "workloads/doacross.hpp"
#include "workloads/figure1.hpp"

namespace tms::sched {
namespace {

TEST(Tms, Figure1ReducesCDelay) {
  const ir::Loop loop = workloads::figure1_loop();
  const machine::MachineModel mach = workloads::figure1_machine();
  machine::SpmtConfig cfg;
  const auto sms = sms_schedule(loop, mach);
  const auto tms = tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(sms.has_value());
  ASSERT_TRUE(tms.has_value());
  EXPECT_LT(tms->schedule.c_delay(cfg), sms->schedule.c_delay(cfg));
  // The cost model must rate the TMS schedule at least as good.
  const double f_sms = cost::per_iter_nomiss(sms->schedule.ii(), sms->schedule.c_delay(cfg), cfg);
  const double f_tms = cost::per_iter_nomiss(tms->schedule.ii(), tms->schedule.c_delay(cfg), cfg);
  EXPECT_LE(f_tms, f_sms);
}

TEST(Tms, CDelayThresholdHonoured) {
  const ir::Loop loop = workloads::figure1_loop();
  const machine::MachineModel mach = workloads::figure1_machine();
  machine::SpmtConfig cfg;
  const auto tms = tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  EXPECT_LE(tms->schedule.c_delay(cfg), tms->c_delay_threshold);
}

TEST(Tms, DoallLoopHasNoSyncAtAll) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = test::tiny_doall();
  const auto tms = tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  EXPECT_EQ(tms->schedule.c_delay(cfg), 0);
  EXPECT_EQ(tms->schedule.reg_dep_set().size(), 0u);
}

TEST(Tms, RecurrenceBoundLoopKeepsWorking) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = test::tiny_recurrence();
  const auto tms = tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  EXPECT_FALSE(tms->schedule.validate().has_value());
  // The accumulator's self dependence crosses threads; its sync delay is
  // bounded below by 1 + C_reg_com.
  EXPECT_GE(tms->schedule.c_delay(cfg), cfg.min_c_delay());
}

TEST(Tms, NcoreOneDegeneratesGracefully) {
  machine::SpmtConfig cfg;
  cfg.ncore = 1;
  const ir::Loop loop = workloads::figure1_loop();
  const machine::MachineModel mach = workloads::figure1_machine();
  const auto tms = tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  EXPECT_FALSE(tms->schedule.validate().has_value());
}

TEST(Tms, ReportsSearchTelemetry) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = test::tiny_recurrence();
  const auto tms = tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  EXPECT_GT(tms->pairs_tried, 0);
  EXPECT_GT(tms->f_value, 0.0);
  EXPECT_GE(tms->misspec_probability, 0.0);
  EXPECT_LE(tms->misspec_probability, 1.0);
}

// Property sweep over random loops: schedules are valid, resource
// feasible, honour the C1 threshold, and never lose to SMS under the
// cost model's F.
class TmsProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TmsProperty, ValidAndThresholded) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = test::random_loop(GetParam());
  const auto tms = tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  const Schedule& s = tms->schedule;
  EXPECT_FALSE(s.validate().has_value());
  ModuloReservationTable mrt(mach, s.ii());
  for (ir::NodeId v = 0; v < loop.num_instrs(); ++v) {
    ASSERT_TRUE(mrt.can_place(loop.instr(v).op, s.slot(v)));
    mrt.place(loop.instr(v).op, s.slot(v));
  }
  // C1: every inter-thread register dependence within the threshold.
  for (const std::size_t ei : s.reg_dep_set()) {
    EXPECT_LE(s.sync_delay(loop.dep(ei), cfg), tms->c_delay_threshold);
  }
  EXPECT_GE(s.ii(), tms->mii);
}

// TMS is not guaranteed to win on every single loop (the paper's wupwise
// regresses), but it must never be drastically worse, and it must win in
// aggregate across a loop population.
TEST_P(TmsProperty, NeverMuchWorseThanSmsUnderCostModel) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = test::random_loop(GetParam());
  const auto sms = sms_schedule(loop, mach);
  const auto tms = tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(sms.has_value());
  ASSERT_TRUE(tms.has_value());
  const double t_sms = cost::estimate_execution_time(
      sms->schedule.ii(), sms->schedule.c_delay(cfg), sms->schedule.misspec_probability(cfg),
      cfg, 1000);
  const double t_tms = cost::estimate_execution_time(
      tms->schedule.ii(), tms->schedule.c_delay(cfg), tms->schedule.misspec_probability(cfg),
      cfg, 1000);
  EXPECT_LE(t_tms, 2.0 * t_sms);
}

INSTANTIATE_TEST_SUITE_P(RandomLoops, TmsProperty,
                         ::testing::Range<std::uint64_t>(2000, 2060));

TEST(TmsAggregate, BeatsSmsAcrossLoopPopulation) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  double sum_sms = 0.0;
  double sum_tms = 0.0;
  int wins = 0;
  int total = 0;
  for (std::uint64_t seed = 2000; seed < 2060; ++seed) {
    const ir::Loop loop = test::random_loop(seed);
    const auto sms = sms_schedule(loop, mach);
    const auto tms = tms_schedule(loop, mach, cfg);
    ASSERT_TRUE(sms.has_value() && tms.has_value());
    const double t_sms = cost::estimate_execution_time(
        sms->schedule.ii(), sms->schedule.c_delay(cfg), sms->schedule.misspec_probability(cfg),
        cfg, 1000);
    const double t_tms = cost::estimate_execution_time(
        tms->schedule.ii(), tms->schedule.c_delay(cfg), tms->schedule.misspec_probability(cfg),
        cfg, 1000);
    sum_sms += t_sms;
    sum_tms += t_tms;
    if (t_tms <= t_sms + 1e-9) ++wins;
    ++total;
  }
  EXPECT_LT(sum_tms, sum_sms) << "TMS must win in aggregate";
  EXPECT_GE(static_cast<double>(wins) / total, 0.8)
      << "TMS should win on the large majority of loops";
}

// Work count, not wall clock: at ncore 32 art, equake and fma3d reach
// both recurrence floors (the accumulator's C_delay and its channel) long
// before F(II, 0) passes the incumbent, which rises by only 1/32 cycle
// per II. The floor cutoff must end each sweep there, with the outcome of
// the full scan. Before the cutoff these runs tried 3,312 / 4,678 / 4,742
// pairs (modulo) and 6,363 / 6,294 / 6,264 (locality + bus); with it,
// 447-750.
TEST(TmsIiCutoff, Ncore32DoacrossSweepsStopAtRecurrenceFloors) {
  struct Want {
    const char* loop;
    int ii;
    int c_delay;
  };
  machine::SpmtConfig c32;
  c32.ncore = 32;
  machine::SpmtConfig loc = c32;
  loc.policy = machine::AllocPolicy::kLocality;
  loc.policy_block = 4;
  loc.bus_bytes_per_transfer = 8;
  const struct {
    const char* name;
    machine::SpmtConfig cfg;
    std::vector<Want> want;
  } configs[] = {
      {"ncore32_modulo", c32, {{"art_sel0", 35, 5}, {"equake_sel", 46, 7}, {"fma3d_sel", 51, 7}}},
      {"ncore32_locality_bus8",
       loc,
       {{"art_sel0", 50, 21}, {"equake_sel", 48, 23}, {"fma3d_sel", 56, 23}}},
  };
  constexpr int kPairsCeiling = 1000;

  const machine::MachineModel mach;
  const std::vector<workloads::SelectedLoop> loops = workloads::doacross_selected_loops();
  for (const auto& c : configs) {
    for (const Want& w : c.want) {
      SCOPED_TRACE(std::string(c.name) + "/" + w.loop);
      const auto it = std::find_if(loops.begin(), loops.end(), [&](const auto& s) {
        return s.loop.name() == w.loop;
      });
      ASSERT_NE(it, loops.end());
      const std::uint64_t cutoffs_before = obs::counters().sched_ii_cutoffs.value();
      const auto r = tms_schedule(it->loop, mach, c.cfg);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->schedule.ii(), w.ii);
      EXPECT_EQ(r->schedule.c_delay(c.cfg), w.c_delay);
      EXPECT_EQ(obs::counters().sched_ii_cutoffs.value() - cutoffs_before, 1u);
      EXPECT_LT(r->pairs_tried, kPairsCeiling);
    }
  }
}

// ---- Memory-recurrence floor -------------------------------------------

/// A recurrence closed through memory: a distance-0 register chain from
/// the load `ld` to the store `st`, closed by the distance-1 store -> load
/// memory flow dependence st -> ld of probability `p`. The rest of the
/// `instrs` instructions are loads feeding chain nodes, side computations
/// of chain values ending in stores, and a few distance-1 register edges
/// from later chain nodes back to earlier ones; `seed` picks the chain
/// length, the opcodes and the filler.
ir::Loop memory_recurrence_loop(int instrs, double p, std::uint64_t seed) {
  support::Rng rng(seed);
  ir::Loop loop("memrec_" + std::to_string(instrs) + "_" + std::to_string(seed));
  const ir::Opcode ops[] = {ir::Opcode::kIAdd, ir::Opcode::kFAdd, ir::Opcode::kFMul,
                            ir::Opcode::kIMul, ir::Opcode::kLogic};
  auto pick_op = [&] { return ops[rng.uniform_int(0, 4)]; };
  const ir::NodeId ld = loop.add_instr(ir::Opcode::kLoad, "ld");
  std::vector<ir::NodeId> chain;
  ir::NodeId prev = ld;
  const int links = rng.uniform_int(2, std::max(2, instrs / 4));
  for (int i = 0; i < links; ++i) {
    const ir::NodeId c = loop.add_instr(pick_op());
    loop.add_reg_flow(prev, c, 0);
    chain.push_back(c);
    prev = c;
  }
  const ir::NodeId st = loop.add_instr(ir::Opcode::kStore, "st");
  loop.add_reg_flow(prev, st, 0);
  loop.add_mem_flow(st, ld, 1, p);
  auto pick_chain = [&] { return chain[static_cast<std::size_t>(
                              rng.uniform_int(0, static_cast<int>(chain.size()) - 1))]; };
  while (loop.num_instrs() < instrs) {
    if (loop.num_instrs() + 2 <= instrs && rng.chance(0.5)) {
      const ir::NodeId side = loop.add_instr(pick_op());
      const ir::NodeId out = loop.add_instr(ir::Opcode::kStore);
      loop.add_reg_flow(pick_chain(), side, 0);
      loop.add_reg_flow(side, out, 0);
    } else {
      const ir::NodeId feed = loop.add_instr(ir::Opcode::kLoad);
      loop.add_reg_flow(feed, pick_chain(), 0);
    }
  }
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (rng.chance(0.2)) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
      loop.add_reg_flow(chain[i], chain[j], 1);
    }
  }
  return loop;
}

/// The family: every size band and closing probability. 0.10 sits exactly
/// at a P_max value, where C2 still lets the closing dependence be
/// speculated, so it must not raise that sweep's floor.
std::vector<ir::Loop> memory_recurrence_family() {
  std::vector<ir::Loop> out;
  const int sizes[] = {12, 20, 32, 44, 60};
  std::uint64_t seed = 71;
  for (const double p : {0.005, 0.05, 0.10, 0.5, 1.0}) {
    for (const int n : sizes) out.push_back(memory_recurrence_loop(n, p, seed++));
  }
  return out;
}

/// Runs `fn` and returns how far it moved the scheduler's work counters.
struct LadderWork {
  std::uint64_t attempts = 0;
  std::uint64_t below_floor = 0;
  std::uint64_t slots_tried = 0;
};
template <typename Fn>
LadderWork ladder_work(Fn&& fn) {
  const obs::Counters& c = obs::counters();
  const LadderWork before{c.sched_attempts.value(), c.sched_rungs_below_floor.value(),
                          c.sched_slots_tried.value()};
  fn();
  return {c.sched_attempts.value() - before.attempts,
          c.sched_rungs_below_floor.value() - before.below_floor,
          c.sched_slots_tried.value() - before.slots_tried};
}

// ladder_reuse = false runs every rung, so it is the reference for the
// floor skip: the skipped rungs must be exactly the ones that could not
// succeed, and a sweep a skip stops being replayed must run to the
// replay's result. The skip acts per rung, so the sweeps are held to 12
// IIs above MII to keep the 100 schedules fast.
TEST(TmsMemoryFloor, SkipMatchesTheRunEveryRungReference) {
  const machine::MachineModel mach;
  TmsOptions opts;
  opts.max_ii_slack = 12;
  TmsOptions reference = opts;
  reference.ladder_reuse = false;
  std::uint64_t below_floor = 0;
  for (const int ncore : {4, 32}) {
    machine::SpmtConfig cfg;
    cfg.ncore = ncore;
    for (const ir::Loop& loop : memory_recurrence_family()) {
      SCOPED_TRACE(loop.name() + " ncore " + std::to_string(ncore));
      std::optional<TmsResult> fast;
      below_floor += ladder_work([&] { fast = tms_schedule(loop, mach, cfg, opts); }).below_floor;
      const auto slow = tms_schedule(loop, mach, cfg, reference);
      ASSERT_TRUE(fast.has_value() && slow.has_value());
      EXPECT_EQ(fast->schedule.ii(), slow->schedule.ii());
      EXPECT_EQ(fast->c_delay_threshold, slow->c_delay_threshold);
      EXPECT_EQ(fast->p_max, slow->p_max);
      EXPECT_EQ(fast->f_value, slow->f_value);
      EXPECT_EQ(fast->misspec_probability, slow->misspec_probability);
      EXPECT_EQ(fast->pairs_tried, slow->pairs_tried);
      for (ir::NodeId v = 0; v < loop.num_instrs(); ++v) {
        EXPECT_EQ(fast->schedule.slot(v), slow->schedule.slot(v)) << "node " << v;
      }
    }
  }
  EXPECT_GT(below_floor, 0u);
}

// The ladder's exact work on five loops at the paper's machine and the
// default options: two memory-recurrence loops, where rungs fall below
// the floor, and three build_loop shapes of 50-150 instructions, whose
// recurrences never close through memory, so the floor never binds. A
// change to the floor, the rung order or the slot search moves these.
TEST(TmsMemoryFloor, LadderWorkIsPinned) {
  struct Pin {
    ir::Loop loop;
    std::uint64_t attempts;
    std::uint64_t below_floor;
    std::uint64_t slots_tried;
  };
  auto shape = [](int instrs, int mem_deps, std::uint64_t seed) {
    workloads::LoopShape s;
    s.name = "shape_" + std::to_string(instrs);
    s.target_instrs = instrs;
    s.rec_circuit_delay = 8;
    s.rec_circuit_len = 4;
    s.accumulators = 2;
    s.feeders = 2;
    s.mem_deps = mem_deps;
    s.mem_prob_lo = 0.01;
    s.mem_prob_hi = 0.5;
    s.seed = seed;
    return workloads::build_loop(s);
  };
  const std::vector<ir::Loop> family = memory_recurrence_family();
  // Without the floor the two memory-recurrence loops ran 176 and 735
  // rungs over 50,895 and 215,092 slots; the shapes' work is unchanged.
  const Pin pins[] = {
      {family[11], 172, 4, 47'997},    // memrec_20_82: p 0.10
      {family[20], 699, 36, 176'654},  // memrec_12_91: p 1.0
      {shape(50, 2, 5), 406, 0, 504'426},
      {shape(100, 6, 5), 298, 0, 896'247},
      {shape(150, 6, 6), 224, 0, 1'358'152},
  };
  const machine::MachineModel mach;
  const machine::SpmtConfig cfg;
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.loop.name());
    const LadderWork w = ladder_work([&] { ASSERT_TRUE(tms_schedule(pin.loop, mach, cfg)); });
    EXPECT_EQ(w.attempts, pin.attempts);
    EXPECT_EQ(w.below_floor, pin.below_floor);
    EXPECT_EQ(w.slots_tried, pin.slots_tried);
  }
}

}  // namespace
}  // namespace tms::sched
