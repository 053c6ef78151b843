// Differential-oracle tests (check/oracle): the SpMT simulation of every
// scheduled loop must agree with the sequential reference interpreter and
// satisfy the simulator's conservation laws — including through at least
// one run that actually exercises the misspeculation squash path.
#include <gtest/gtest.h>

#include "check/oracle.hpp"
#include "sched/sms.hpp"
#include "sched/tms.hpp"
#include "test_util.hpp"
#include "workloads/doacross.hpp"
#include "workloads/figure1.hpp"

namespace tms {
namespace {

TEST(Oracle, Figure1SmsAndTmsMatchReference) {
  const ir::Loop loop = workloads::figure1_loop();
  const machine::MachineModel mach = workloads::figure1_machine();
  machine::SpmtConfig cfg;

  const auto sms = sched::sms_schedule(loop, mach);
  ASSERT_TRUE(sms.has_value());
  const auto sms_report = check::run_differential_oracle(loop, sms->schedule, cfg);
  EXPECT_TRUE(sms_report.ok()) << sms_report.to_string();

  const auto tms = sched::tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  const auto tms_report = check::run_differential_oracle(loop, tms->schedule, cfg);
  EXPECT_TRUE(tms_report.ok()) << tms_report.to_string();
}

TEST(Oracle, DoacrossSuiteMatchesReference) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  check::OracleOptions opts;
  opts.iterations = 96;  // lucas has 102 instrs; keep the suite quick
  for (const workloads::SelectedLoop& sel : workloads::doacross_selected_loops()) {
    const auto tms = sched::tms_schedule(sel.loop, mach, cfg);
    ASSERT_TRUE(tms.has_value()) << sel.loop.name();
    const auto report = check::run_differential_oracle(sel.loop, tms->schedule, cfg, opts);
    EXPECT_TRUE(report.ok()) << sel.benchmark << "/" << sel.loop.name() << ":\n"
                             << report.to_string();
  }
}

TEST(Oracle, DoallLoopNeverMisspeculates) {
  // No memory dependences at all: communication still happens (an
  // iteration is pipelined across stages) but the squash path must stay
  // cold, and every conservation law must hold.
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = test::tiny_doall();
  const auto sms = sched::sms_schedule(loop, mach);
  ASSERT_TRUE(sms.has_value());
  const auto report = check::run_differential_oracle(loop, sms->schedule, cfg);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_EQ(report.stats.misspeculations, 0);
}

TEST(Oracle, MisspeculationSquashPathStillMatchesReference) {
  // A speculated always-colliding dependence: the store sits at the end
  // of the iteration, the dependent load of the next iteration at the
  // start, so every younger thread reads stale memory and is squashed.
  // The committed state must still match the sequential reference
  // through the re-execution machinery, and every conservation law must
  // survive the squash path.
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  ir::Loop loop("squashy");
  const ir::NodeId st = loop.add_instr(ir::Opcode::kStore, "st");
  const ir::NodeId ld = loop.add_instr(ir::Opcode::kLoad, "ld");
  loop.add_mem_flow(st, ld, /*distance=*/1, /*probability=*/1.0);
  sched::Schedule s(loop, mach, 16);
  s.set_slot(st, 15);
  s.set_slot(ld, 0);
  ASSERT_FALSE(s.validate().has_value());
  ASSERT_EQ(s.speculated_deps(cfg).size(), 1u)
      << "dependence must be speculated for this test to bite";

  check::OracleOptions opts;
  opts.iterations = 200;
  opts.stream_seed = 7;
  const auto report = check::run_differential_oracle(loop, s, cfg, opts);
  EXPECT_TRUE(report.ok()) << report.to_string();
  EXPECT_GT(report.stats.misspeculations, 0)
      << "squash path was not exercised; the test lost its teeth";
  EXPECT_GT(report.stats.squashed_cycles, 0);
}

TEST(Oracle, RandomLoopsAcrossCoreCounts) {
  machine::MachineModel mach;
  check::OracleOptions opts;
  opts.iterations = 64;
  for (std::uint64_t seed : {3u, 9u, 21u}) {
    const ir::Loop loop = test::random_loop(seed);
    for (int ncore : {2, 8}) {
      machine::SpmtConfig cfg;
      cfg.ncore = ncore;
      const auto tms = sched::tms_schedule(loop, mach, cfg);
      ASSERT_TRUE(tms.has_value()) << "seed " << seed;
      const auto report = check::run_differential_oracle(loop, tms->schedule, cfg, opts);
      EXPECT_TRUE(report.ok()) << "seed " << seed << " ncore " << ncore << ":\n"
                               << report.to_string();
    }
  }
}

TEST(Oracle, EveryPolicyHolds) {
  // Semantics (memory image, fingerprint, stats conservation, trace
  // consistency against the policy's core map) are allocation-policy
  // independent: the oracle must pass under every policy, with the bus
  // term on.
  machine::MachineModel mach;
  check::OracleOptions opts;
  opts.iterations = 64;
  const machine::AllocPolicy policies[] = {
      machine::AllocPolicy::kModulo, machine::AllocPolicy::kRoundRobinStride,
      machine::AllocPolicy::kLocality, machine::AllocPolicy::kDepDistance};
  for (std::uint64_t seed : {3u, 21u}) {
    const ir::Loop loop = test::random_loop(seed);
    for (const machine::AllocPolicy pol : policies) {
      machine::SpmtConfig cfg;
      cfg.ncore = 8;
      cfg.policy = pol;
      cfg.policy_stride = 3;
      cfg.policy_block = 2;
      cfg.bus_bytes_per_transfer = 8;
      const auto tms = sched::tms_schedule(loop, mach, cfg);
      ASSERT_TRUE(tms.has_value()) << "seed " << seed;
      const auto report = check::run_differential_oracle(loop, tms->schedule, cfg, opts);
      EXPECT_TRUE(report.ok()) << "seed " << seed << " policy " << static_cast<int>(pol) << ":\n"
                               << report.to_string();
    }
  }
}

}  // namespace
}  // namespace tms
