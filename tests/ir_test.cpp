#include <gtest/gtest.h>

#include "ir/graph.hpp"
#include "ir/loop.hpp"
#include "ir/textio.hpp"
#include "machine/machine.hpp"
#include "test_util.hpp"
#include "workloads/figure1.hpp"

namespace tms::ir {
namespace {

TEST(Loop, AddInstrAssignsSequentialIds) {
  Loop loop("l");
  EXPECT_EQ(loop.add_instr(Opcode::kIAdd), 0);
  EXPECT_EQ(loop.add_instr(Opcode::kFMul), 1);
  EXPECT_EQ(loop.num_instrs(), 2);
  EXPECT_EQ(loop.instr(1).op, Opcode::kFMul);
}

TEST(Loop, AutoNamesNodes) {
  Loop loop("l");
  const NodeId v = loop.add_instr(Opcode::kIAdd);
  EXPECT_EQ(loop.instr(v).name, "n0");
  const NodeId w = loop.add_instr(Opcode::kIAdd, "custom");
  EXPECT_EQ(loop.instr(w).name, "custom");
}

TEST(Loop, EdgesIndexedBothDirections) {
  Loop loop("l");
  const NodeId a = loop.add_instr(Opcode::kIAdd);
  const NodeId b = loop.add_instr(Opcode::kIAdd);
  const std::size_t e = loop.add_reg_flow(a, b, 0);
  ASSERT_EQ(loop.out_edges(a).size(), 1u);
  ASSERT_EQ(loop.in_edges(b).size(), 1u);
  EXPECT_EQ(loop.out_edges(a)[0], e);
  EXPECT_EQ(loop.in_edges(b)[0], e);
}

TEST(Loop, ValidateAcceptsWellFormed) {
  EXPECT_FALSE(test::tiny_recurrence().validate().has_value());
  EXPECT_FALSE(workloads::figure1_loop().validate().has_value());
}

TEST(Loop, ValidateRejectsEmpty) {
  Loop loop("empty");
  EXPECT_TRUE(loop.validate().has_value());
}

TEST(Loop, ValidateRejectsDistanceZeroCycle) {
  Loop loop("cyc");
  const NodeId a = loop.add_instr(Opcode::kIAdd);
  const NodeId b = loop.add_instr(Opcode::kIAdd);
  loop.add_reg_flow(a, b, 0);
  loop.add_reg_flow(b, a, 0);
  EXPECT_TRUE(loop.validate().has_value());
}

TEST(Loop, ValidateRejectsMemEdgeOnNonMemoryOps) {
  Loop loop("m");
  const NodeId a = loop.add_instr(Opcode::kIAdd);
  const NodeId b = loop.add_instr(Opcode::kIAdd);
  loop.add_dep(a, b, DepKind::kMemory, DepType::kFlow, 1, 0.5);
  EXPECT_TRUE(loop.validate().has_value());
}

// A distance past the bound used to overflow II * distance inside the
// scheduler and abort it; the loop is refused up front instead.
TEST(Loop, ValidateBoundsTheDependenceDistance) {
  for (const int distance : {ir::kMaxDistance, ir::kMaxDistance + 1, 2147483647}) {
    ir::Loop loop("huge");
    const ir::NodeId a = loop.add_instr(ir::Opcode::kIAdd, "a");
    const ir::NodeId s = loop.add_instr(ir::Opcode::kIAdd, "s");
    loop.add_reg_flow(a, s, 0);
    loop.add_reg_flow(s, s, distance);
    const auto err = loop.validate();
    if (distance <= ir::kMaxDistance) {
      EXPECT_FALSE(err.has_value()) << *err;
    } else {
      ASSERT_TRUE(err.has_value()) << distance;
      EXPECT_NE(err->find("exceeds the bound 65536"), std::string::npos) << *err;
    }
  }
}

TEST(TextIo, DistanceAboveTheBoundIsALineError) {
  const auto ok = ir::parse_loop_string("loop huge\ninstr s iadd\nreg s s 65536\n");
  EXPECT_TRUE(std::holds_alternative<ir::Loop>(ok));
  const auto parsed = ir::parse_loop_string("loop huge\ninstr s iadd\nreg s s 2147483647\n");
  const auto* err = std::get_if<ir::ParseError>(&parsed);
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->line, 3);
  EXPECT_TRUE(err->over_bound);
  EXPECT_EQ(err->message, "distance 2147483647 exceeds the bound 65536");
  // A syntax error is not a bound error.
  const auto syntax = ir::parse_loop_string("loop huge\ninstr s iadd\nreg s s x\n");
  ASSERT_NE(std::get_if<ir::ParseError>(&syntax), nullptr);
  EXPECT_FALSE(std::get<ir::ParseError>(syntax).over_bound);
}

TEST(Scc, SingleNodeNoSelfLoopIsTrivial) {
  Loop loop("l");
  loop.add_instr(Opcode::kIAdd);
  const SccResult scc = strongly_connected_components(loop);
  ASSERT_EQ(scc.num_components(), 1);
  EXPECT_TRUE(scc.is_trivial(0));
}

TEST(Scc, SelfLoopIsNonTrivial) {
  Loop loop("l");
  const NodeId a = loop.add_instr(Opcode::kIAdd);
  loop.add_reg_flow(a, a, 1);
  const SccResult scc = strongly_connected_components(loop);
  ASSERT_EQ(scc.num_components(), 1);
  EXPECT_FALSE(scc.is_trivial(0));
}

TEST(Scc, CycleDetectedAcrossDistance) {
  // a -> b (d0), b -> a (d1): one SCC of size 2.
  Loop loop("l");
  const NodeId a = loop.add_instr(Opcode::kIAdd);
  const NodeId b = loop.add_instr(Opcode::kIAdd);
  const NodeId c = loop.add_instr(Opcode::kIAdd);
  loop.add_reg_flow(a, b, 0);
  loop.add_reg_flow(b, a, 1);
  loop.add_reg_flow(b, c, 0);
  const SccResult scc = strongly_connected_components(loop);
  EXPECT_EQ(scc.num_components(), 2);
  EXPECT_TRUE(scc.same_component(a, b));
  EXPECT_FALSE(scc.same_component(a, c));
}

TEST(Scc, Figure1HasFourNontrivialSccs) {
  // Recurrence circuit {n0,n1,n2,n4,n5}, accumulators n6, n7, induction n8.
  const Loop loop = workloads::figure1_loop();
  EXPECT_EQ(count_nontrivial_sccs(loop), 4);
}

TEST(Topo, RespectsIntraIterationEdges) {
  const Loop loop = workloads::figure1_loop();
  const auto order = topo_order_intra(loop);
  std::vector<int> pos(static_cast<std::size_t>(loop.num_instrs()));
  for (std::size_t i = 0; i < order.size(); ++i) pos[static_cast<std::size_t>(order[i])] = static_cast<int>(i);
  for (const DepEdge& e : loop.deps()) {
    if (e.distance == 0) {
      EXPECT_LT(pos[static_cast<std::size_t>(e.src)], pos[static_cast<std::size_t>(e.dst)]);
    }
  }
}

TEST(Topo, CoversAllNodesExactlyOnce) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Loop loop = test::random_loop(seed);
    const auto order = topo_order_intra(loop);
    ASSERT_EQ(static_cast<int>(order.size()), loop.num_instrs());
    std::vector<bool> seen(order.size(), false);
    for (const NodeId v : order) {
      ASSERT_FALSE(seen[static_cast<std::size_t>(v)]);
      seen[static_cast<std::size_t>(v)] = true;
    }
  }
}

TEST(Ldp, SingleNodeEqualsItsLatency) {
  Loop loop("l");
  loop.add_instr(Opcode::kFMul);
  machine::MachineModel mach;
  EXPECT_EQ(longest_dependence_path(loop, mach.latencies(loop)),
            mach.latency(Opcode::kFMul));
}

TEST(Ldp, ChainSumsLatencies) {
  machine::MachineModel mach;
  const ir::Loop loop = test::tiny_chain();  // load(3) -> fadd(2)
  EXPECT_EQ(longest_dependence_path(loop, mach.latencies(loop)), 5);
}

TEST(Ldp, IgnoresInterIterationEdges) {
  machine::MachineModel mach;
  const ir::Loop loop = test::tiny_recurrence();  // load->acc, acc->acc d1
  EXPECT_EQ(longest_dependence_path(loop, mach.latencies(loop)), 5);
}

TEST(HeightsDepths, ChainValues) {
  machine::MachineModel mach;
  const ir::Loop loop = test::tiny_chain();
  const auto lat = mach.latencies(loop);
  const auto h = node_heights(loop, lat);
  const auto d = node_depths(loop, lat);
  EXPECT_EQ(h[0], 5);  // load: 3 + fadd 2 below it
  EXPECT_EQ(h[1], 2);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 3);  // after the load completes
}

TEST(HeightsDepths, HeightIsDepthPlusLatencyOnCriticalPath) {
  machine::MachineModel mach;
  for (std::uint64_t seed = 30; seed < 40; ++seed) {
    const Loop loop = test::random_loop(seed);
    const auto lat = mach.latencies(loop);
    const int ldp = longest_dependence_path(loop, lat);
    const auto h = node_heights(loop, lat);
    const auto d = node_depths(loop, lat);
    int best = 0;
    for (NodeId v = 0; v < loop.num_instrs(); ++v) {
      EXPECT_LE(d[static_cast<std::size_t>(v)] + h[static_cast<std::size_t>(v)], ldp);
      best = std::max(best, d[static_cast<std::size_t>(v)] + h[static_cast<std::size_t>(v)]);
    }
    EXPECT_EQ(best, ldp);
  }
}

}  // namespace
}  // namespace tms::ir
