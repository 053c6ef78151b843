#include "workloads/doacross.hpp"

#include "support/assert.hpp"

namespace tms::workloads {
namespace {

using ir::Loop;
using ir::NodeId;
using ir::Opcode;

/// Appends a dataflow chain `ops` fed by `from`; returns the tail node.
NodeId chain(Loop& loop, NodeId from, std::initializer_list<Opcode> ops) {
  NodeId cur = from;
  for (const Opcode op : ops) {
    const NodeId nxt = loop.add_instr(op);
    loop.add_reg_flow(cur, nxt, 0);
    cur = nxt;
  }
  return cur;
}

/// A load -> compute -> store lane: returns {load, store}.
struct Lane {
  NodeId load;
  NodeId tail;   ///< last compute node before the store
  NodeId store;
};

Lane lane(Loop& loop, NodeId ind, std::initializer_list<Opcode> ops) {
  const NodeId ld = loop.add_instr(Opcode::kLoad);
  loop.add_reg_flow(ind, ld, 0);
  const NodeId tail = chain(loop, ld, ops);
  const NodeId st = loop.add_instr(Opcode::kStore);
  loop.add_reg_flow(tail, st, 0);
  loop.add_reg_flow(ind, st, 0);
  return Lane{ld, tail, st};
}

NodeId accumulator(Loop& loop, Opcode op) {
  const NodeId acc = loop.add_instr(op);
  loop.add_reg_flow(acc, acc, 1);
  loop.mark_live_in(acc);
  return acc;
}

NodeId induction(Loop& loop) {
  const NodeId ind = loop.add_instr(Opcode::kIAdd, "ind");
  loop.add_reg_flow(ind, ind, 1);
  loop.mark_live_in(ind);
  return ind;
}

constexpr Opcode FM = Opcode::kFMul;   // lat 4
constexpr Opcode FA = Opcode::kFAdd;   // lat 2
constexpr Opcode FS = Opcode::kFSub;   // lat 2
constexpr Opcode IA = Opcode::kIAdd;   // lat 1
constexpr Opcode LG = Opcode::kLogic;  // lat 1

/// art: 27 instructions, 3 SCCs (induction + two accumulators), MII 11
/// bound by the single memory port (11 memory ops), LDP ~29. Per the
/// paper, the selected art loops' MIIs are constrained by resources, not
/// recurrences — so TMS can push C_delay down to the accumulator floor
/// (lat(fadd) + C_reg_com = 5, Table 3's D = 5). The paper's two small
/// 11-instruction loops appear here in their 4x-unrolled form; `variant`
/// varies the FP mix across the four selected loops.
Loop make_art(int variant, double coverage) {
  Loop loop("art_sel" + std::to_string(variant));
  const NodeId ind = induction(loop);                          // 1
  const NodeId acc0 = accumulator(loop, FA);
  const NodeId acc1 = accumulator(loop, FA);                   // +2 = 3
  // Deep lane: LDP = 3 + 5*4 + 2*2 + 1 + 1(store) = 29.
  const Lane deep = lane(loop, ind, {FM, FM, FM, FM, FM, FA, FA, IA});  // +10 = 13
  // Short memory lanes (the unrolled bodies).
  const Lane l2 = lane(loop, ind, {FA, variant % 2 == 0 ? FA : FS});    // +4 = 17
  const Lane l3 = lane(loop, ind, {IA});                                // +3 = 20
  lane(loop, ind, {FA});                                                // +3 = 23
  // Gather loads folded into the accumulators' next-iteration values
  // would close a cycle, so they feed plain consumers instead.
  const NodeId ld5 = loop.add_instr(Opcode::kLoad);
  loop.add_reg_flow(ind, ld5, 0);
  const NodeId ld6 = loop.add_instr(Opcode::kLoad);
  loop.add_reg_flow(ind, ld6, 0);
  const NodeId s0 = loop.add_instr(variant % 2 == 0 ? FS : FA);
  loop.add_reg_flow(ld5, s0, 0);
  loop.add_reg_flow(ld6, s0, 0);
  const NodeId s1 = loop.add_instr(LG);
  loop.add_reg_flow(s0, s1, 0);                                // +4 = 27
  // Cross-iteration feeders: the SMS pathology (Figure 2's n6 -> n0).
  loop.add_reg_flow(acc0, deep.load, 1);
  loop.add_reg_flow(acc1, l2.load, 1);
  // Speculated dependences with small profiled probability.
  loop.add_mem_flow(deep.store, ld5, 1, 0.02);
  loop.add_mem_flow(l2.store, l3.load, 1, 0.02);
  loop.set_coverage(coverage);
  TMS_ASSERT(!loop.validate().has_value());
  return loop;
}

/// equake: 82 instructions, 3 SCCs (induction + 2 accumulators), MII ~20
/// (resource/issue bound), LDP ~26. Good ILP and TLP; the speculated
/// dependences carry small probability but synchronising them would cost
/// ~19% (Section 5.2's ablation).
Loop make_equake(double coverage) {
  Loop loop("equake_sel");
  const NodeId ind = induction(loop);                          // 1
  const NodeId acc0 = accumulator(loop, FA);
  const NodeId acc1 = accumulator(loop, FM);                   // +2 = 3
  // Eight parallel lanes of ~9-10 instructions; the deepest gives LDP 26:
  // 3 (load) + 4+4+4 (fmul) + 2+2 (fadd) + ... capped below 27.
  std::vector<Lane> lanes;
  // LDP lane: 3 + 4*4 + 2*2 + 1 + 1 + 1(store) = 26.
  lanes.push_back(lane(loop, ind, {FM, FM, FM, FM, FA, FA, IA, LG}));  // +10
  lanes.push_back(lane(loop, ind, {FM, FM, FA, FA, IA, LG}));          // +8
  lanes.push_back(lane(loop, ind, {FM, FM, FA, IA, LG}));              // +7
  lanes.push_back(lane(loop, ind, {FM, FA, FA, IA, LG, IA}));          // +8
  lanes.push_back(lane(loop, ind, {FM, FM, FA, FS, IA}));              // +7
  lanes.push_back(lane(loop, ind, {FA, FA, FM, IA, LG}));              // +7
  lanes.push_back(lane(loop, ind, {FM, FS, FA, IA}));                  // +6
  lanes.push_back(lane(loop, ind, {FM, FM, FS, IA, LG}));              // +7
  // Running total: 3 + 60 = 63.
  // Cross-lane coupling through this iteration's values.
  loop.add_reg_flow(lanes[0].tail, lanes[1].store, 0);
  // Feeders: next iteration's lane heads wait on the accumulators.
  loop.add_reg_flow(acc0, lanes[0].load, 1);
  loop.add_reg_flow(acc1, lanes[3].load, 1);
  loop.add_reg_flow(acc0, lanes[5].load, 1);
  // Fill to 82 with integer index arithmetic.
  chain(loop, ind, {IA, LG, IA, LG, IA, LG, IA, IA, LG, IA,
                    LG, IA, IA, LG, IA, LG, IA, IA, LG});  // +19 = 82
  // Speculated dependences (small probability, per the <0.1% misspec rate).
  loop.add_mem_flow(lanes[0].store, lanes[2].load, 1, 0.015);
  loop.add_mem_flow(lanes[1].store, lanes[4].load, 1, 0.02);
  loop.add_mem_flow(lanes[3].store, lanes[6].load, 1, 0.015);
  loop.set_coverage(coverage);
  TMS_ASSERT(!loop.validate().has_value());
  return loop;
}

/// lucas: 102 instructions, 8 SCCs, MII 62 — the largest SCC is closed by
/// probability-1.0 flow dependences (a true loop-carried memory
/// recurrence), so MII is recurrence-bound, C_delay ends up >= MII, and
/// the loop exhibits ILP only (Table 3: II 64, D 62).
Loop make_lucas(double coverage) {
  Loop loop("lucas_sel");
  const NodeId ind = induction(loop);                          // 1 (SCC 1)
  // The big recurrence: load -> 13 fmul -> 3 fadd -> store, closed by a
  // probability-1.0 memory flow dependence of distance 1.
  // Circuit delay: 3 + 13*4 + 3*2 + 1 = 62.
  const NodeId rld = loop.add_instr(Opcode::kLoad, "rec_load");
  loop.add_reg_flow(ind, rld, 0);
  const NodeId rtail = chain(loop, rld, {FM, FM, FM, FM, FM, FM, FM, FM, FM, FM, FM, FM, FM,
                                         FA, FA, FA});
  const NodeId rst = loop.add_instr(Opcode::kStore, "rec_store");
  loop.add_reg_flow(rtail, rst, 0);
  loop.add_reg_flow(ind, rst, 0);
  loop.add_mem_flow(rst, rld, 1, 1.0);                         // +18 = 19 (SCC 2)
  // Six accumulators (SCCs 3-8).
  std::vector<NodeId> accs;
  for (int a = 0; a < 6; ++a) accs.push_back(accumulator(loop, a % 2 == 0 ? FA : FM));
  // = 25
  // A deep independent lane for LDP ~89: 3 + 20*4 + 3*2 = 89.
  const Lane deep = lane(loop, ind, {FM, FM, FM, FM, FM, FM, FM, FM, FM, FM,
                                     FM, FM, FM, FM, FM, FM, FM, FM, FM, FM, FA, FA});
  // +24 = 49
  // Parallel FP lanes to reach 102.
  const Lane l2 = lane(loop, ind, {FM, FM, FM, FA, FA, IA, LG, IA});  // +10 = 59
  const Lane l3 = lane(loop, ind, {FM, FM, FA, FA, IA, LG});          // +8 = 67
  const Lane l4 = lane(loop, ind, {FM, FM, FM, FA, IA});              // +7 = 74
  const Lane l5 = lane(loop, ind, {FM, FA, FA, IA, LG});              // +7 = 81
  const Lane l6 = lane(loop, ind, {FM, FM, FA, IA});                  // +6 = 87
  // Feeders into the recurrence and deep lane.
  loop.add_reg_flow(accs[0], rld, 1);
  loop.add_reg_flow(accs[1], deep.load, 1);
  loop.add_reg_flow(accs[2], l2.load, 1);
  // Integer bookkeeping to 102.
  chain(loop, ind, {IA, LG, IA, LG, IA, IA, LG, IA, LG, IA, IA, LG, IA, LG, IA});  // +15 = 102
  // One more small-probability speculated dependence between lanes.
  loop.add_mem_flow(l2.store, l3.load, 1, 0.02);
  (void)l4;
  (void)l5;
  (void)l6;
  loop.set_coverage(coverage);
  TMS_ASSERT(!loop.validate().has_value());
  return loop;
}

/// fma3d: 72 instructions, 3 SCCs, MII 18 (= 72/4, issue bound), LDP ~34.
Loop make_fma3d(double coverage) {
  Loop loop("fma3d_sel");
  const NodeId ind = induction(loop);                          // 1
  const NodeId acc0 = accumulator(loop, FA);
  const NodeId acc1 = accumulator(loop, FM);                   // +2 = 3
  // LDP lane: 3 + 6*4 + 3*2 + 1 + 1 = 35.
  const Lane l0 = lane(loop, ind, {FM, FM, FM, FM, FM, FM, FA, FA, FA, IA});  // +12 = 15
  const Lane l1 = lane(loop, ind, {FM, FM, FA, FA, IA, LG});                   // +9 = 24
  const Lane l2 = lane(loop, ind, {FM, FM, FM, FA, IA});                       // +8 = 32
  const Lane l3 = lane(loop, ind, {FM, FA, FS, IA, LG});                       // +8 = 40
  const Lane l4 = lane(loop, ind, {FM, FM, FA, IA});                           // +7 = 47
  const Lane l5 = lane(loop, ind, {FA, FA, FM, IA, LG});                       // +8 = 55
  const Lane l6 = lane(loop, ind, {FM, FS, IA});                               // +6 = 61
  // Feeders.
  loop.add_reg_flow(acc0, l0.load, 1);
  loop.add_reg_flow(acc1, l2.load, 1);
  loop.add_reg_flow(acc0, l4.load, 1);
  // Integer bookkeeping to 72.
  chain(loop, ind, {IA, LG, IA, LG, IA, IA, LG, IA, LG, IA, IA,
                    LG, IA, LG, IA, IA, LG});  // +17 = 72
  // Speculated dependences; synchronising them costs ~21% (Section 5.2).
  loop.add_mem_flow(l0.store, l1.load, 1, 0.02);
  loop.add_mem_flow(l2.store, l3.load, 1, 0.025);
  loop.add_mem_flow(l4.store, l6.load, 1, 0.015);
  (void)l5;
  loop.set_coverage(coverage);
  TMS_ASSERT(!loop.validate().has_value());
  return loop;
}

}  // namespace

std::vector<SelectedLoop> doacross_selected_loops() {
  std::vector<SelectedLoop> out;
  // art's four loops share 21.6% coverage.
  for (int v = 0; v < 4; ++v) {
    out.push_back({"art", make_art(v, 0.216 / 4.0)});
  }
  out.push_back({"equake", make_equake(0.585)});
  out.push_back({"lucas", make_lucas(0.334)});
  out.push_back({"fma3d", make_fma3d(0.143)});
  return out;
}

}  // namespace tms::workloads
