#include <gtest/gtest.h>

#include "ir/graph.hpp"
#include "sched/mii.hpp"
#include "test_util.hpp"
#include "workloads/figure1.hpp"

namespace tms::sched {
namespace {

using ir::Loop;
using ir::NodeId;
using ir::Opcode;

TEST(ResII, IssueWidthBound) {
  // 9 single-cycle integer adds on a 4-wide machine with 2 IALUs:
  // IALU bound ceil(9/2)=5 dominates issue bound ceil(9/4)=3.
  Loop loop("l");
  for (int i = 0; i < 9; ++i) loop.add_instr(Opcode::kIAdd);
  machine::MachineModel mach;
  EXPECT_EQ(res_ii(loop, mach), 5);
}

TEST(ResII, MemoryPortBound) {
  Loop loop("l");
  for (int i = 0; i < 3; ++i) loop.add_instr(Opcode::kLoad);
  machine::MachineModel mach;
  EXPECT_EQ(res_ii(loop, mach), 3);  // one memory port
}

TEST(ResII, OccupancyCounts) {
  Loop loop("l");
  loop.add_instr(Opcode::kFDiv);  // occupancy 12
  machine::MachineModel mach;
  EXPECT_EQ(res_ii(loop, mach), 12);
}

TEST(RecII, NoRecurrenceIsOne) {
  machine::MachineModel mach;
  EXPECT_EQ(rec_ii(test::tiny_chain(), mach), 1);
}

TEST(RecII, SelfLoopEqualsLatencyOverDistance) {
  machine::MachineModel mach;
  // fadd self-loop distance 1: RecII = 2.
  Loop loop("l");
  const NodeId a = loop.add_instr(Opcode::kFAdd);
  loop.add_reg_flow(a, a, 1);
  EXPECT_EQ(rec_ii(loop, mach), 2);
  // distance 2 halves it (ceil).
  Loop loop2("l2");
  const NodeId b = loop2.add_instr(Opcode::kFAdd);
  loop2.add_reg_flow(b, b, 2);
  EXPECT_EQ(rec_ii(loop2, mach), 1);
}

TEST(RecII, CircuitDelaySum) {
  machine::MachineModel mach;
  // fmul(4) -> fadd(2) -> iadd(1) -> back, distance 1: RecII = 7.
  Loop loop("l");
  const NodeId a = loop.add_instr(Opcode::kFMul);
  const NodeId b = loop.add_instr(Opcode::kFAdd);
  const NodeId c = loop.add_instr(Opcode::kIAdd);
  loop.add_reg_flow(a, b, 0);
  loop.add_reg_flow(b, c, 0);
  loop.add_reg_flow(c, a, 1);
  EXPECT_EQ(rec_ii(loop, mach), 7);
}

TEST(RecII, DistanceDividesDelay) {
  machine::MachineModel mach;
  // Same circuit closed with distance 2: RecII = ceil(7/2) = 4.
  Loop loop("l");
  const NodeId a = loop.add_instr(Opcode::kFMul);
  const NodeId b = loop.add_instr(Opcode::kFAdd);
  const NodeId c = loop.add_instr(Opcode::kIAdd);
  loop.add_reg_flow(a, b, 0);
  loop.add_reg_flow(b, c, 0);
  loop.add_reg_flow(c, a, 2);
  EXPECT_EQ(rec_ii(loop, mach), 4);
}

TEST(RecII, SubsetRestrictsEdges) {
  machine::MachineModel mach;
  // Two disjoint self-loops with different latencies.
  Loop loop("l");
  const NodeId a = loop.add_instr(Opcode::kFMul);  // RecII 4
  const NodeId b = loop.add_instr(Opcode::kFAdd);  // RecII 2
  loop.add_reg_flow(a, a, 1);
  loop.add_reg_flow(b, b, 1);
  EXPECT_EQ(rec_ii(loop, mach), 4);
  std::vector<bool> only_b(2, false);
  only_b[static_cast<std::size_t>(b)] = true;
  EXPECT_EQ(rec_ii_subset(loop, mach, only_b), 2);
}

TEST(MinII, IsMaxOfComponents) {
  machine::MachineModel mach;
  for (std::uint64_t seed = 50; seed < 70; ++seed) {
    const Loop loop = test::random_loop(seed);
    EXPECT_EQ(min_ii(loop, mach), std::max(res_ii(loop, mach), rec_ii(loop, mach)));
  }
}

TEST(Feasibility, MonotoneInII) {
  machine::MachineModel mach;
  for (std::uint64_t seed = 70; seed < 85; ++seed) {
    const Loop loop = test::random_loop(seed);
    const int r = rec_ii(loop, mach);
    if (r > 1) {
      EXPECT_FALSE(recurrences_feasible(loop, mach, r - 1));
    }
    EXPECT_TRUE(recurrences_feasible(loop, mach, r));
    EXPECT_TRUE(recurrences_feasible(loop, mach, r + 3));
  }
}

TEST(Figure1, ExampleMiiValues) {
  const Loop loop = workloads::figure1_loop();
  const machine::MachineModel mach = workloads::figure1_machine();
  EXPECT_EQ(res_ii(loop, mach), 4);  // non-pipelined 4-cycle multiply
  EXPECT_EQ(rec_ii(loop, mach), 8);  // circuit n0..n5 closed by a zero-delay speculated dep
  EXPECT_EQ(min_ii(loop, mach), 8);
}

TEST(RecII, AntiAndOutputDelays) {
  machine::MachineModel mach;
  // Anti dependence cycle: a reads, b writes (delay 0), b -> a flow d1.
  Loop loop("l");
  const NodeId a = loop.add_instr(Opcode::kIAdd);
  const NodeId b = loop.add_instr(Opcode::kIAdd);
  loop.add_dep(a, b, ir::DepKind::kRegister, ir::DepType::kAnti, 0);
  loop.add_reg_flow(b, a, 1);
  // Circuit delay = 0 (anti) + 1 (b's latency) = 1, distance 1.
  EXPECT_EQ(rec_ii(loop, mach), 1);
}

}  // namespace
}  // namespace tms::sched
