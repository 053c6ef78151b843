#include "sched/tms.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "cost/cost_model.hpp"
#include "ir/graph.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "sched/dep_delay.hpp"
#include "sched/mii.hpp"
#include "sched/mrt.hpp"
#include "sched/order.hpp"
#include "sched/postpass.hpp"
#include "sched/window.hpp"
#include "support/assert.hpp"

namespace tms::sched {
namespace {

/// New inter-thread register dependences that appear if `v` is placed at
/// its tentative slot: edges adjacent to `v` whose other endpoint is
/// placed and whose kernel distance is >= 1.
void collect_new_reg_deps(const Schedule& ps, const ir::Loop& loop, ir::NodeId v,
                          std::vector<std::size_t>& out) {
  out.clear();
  for (const std::size_t ei : loop.in_edges(v)) {
    const ir::DepEdge& e = loop.dep(ei);
    if (!e.is_register_flow()) continue;
    if (e.src != v && !ps.is_placed(e.src)) continue;
    if (ps.kernel_distance(e) >= 1) out.push_back(ei);
  }
  for (const std::size_t ei : loop.out_edges(v)) {
    const ir::DepEdge& e = loop.dep(ei);
    if (!e.is_register_flow()) continue;
    if (e.src == e.dst) continue;  // self edges already handled above
    if (!ps.is_placed(e.dst)) continue;
    if (ps.kernel_distance(e) >= 1) out.push_back(ei);
  }
}

void collect_new_mem_deps(const Schedule& ps, const ir::Loop& loop, ir::NodeId v,
                          std::vector<std::size_t>& out) {
  out.clear();
  for (const std::size_t ei : loop.in_edges(v)) {
    const ir::DepEdge& e = loop.dep(ei);
    if (!e.is_memory_flow()) continue;
    if (e.src != v && !ps.is_placed(e.src)) continue;
    if (ps.kernel_distance(e) >= 1) out.push_back(ei);
  }
  for (const std::size_t ei : loop.out_edges(v)) {
    const ir::DepEdge& e = loop.dep(ei);
    if (!e.is_memory_flow()) continue;
    if (e.src == e.dst) continue;
    if (!ps.is_placed(e.dst)) continue;
    if (ps.kernel_distance(e) >= 1) out.push_back(ei);
  }
}

/// Ejection update of RegDep(PS) or MemDep(PS): drops the edges that lost
/// an endpoint and restores edge-index order. Both sets hold exactly the
/// edges of their kind with both endpoints placed and d_ker >= 1 (a placed
/// node's slot never moves), so the result is the set a scan over every
/// edge would build, in the same order — C2's running product over
/// MemDep(PS) multiplies in that order.
void drop_unplaced(const Schedule& ps, const ir::Loop& loop, std::vector<std::size_t>& set) {
  std::erase_if(set, [&](std::size_t ei) {
    const ir::DepEdge& e = loop.dep(ei);
    return !ps.is_placed(e.src) || !ps.is_placed(e.dst);
  });
  std::sort(set.begin(), set.end());
}

/// The memory-recurrence floor of each P_max value (docs/ALGORITHMS.md,
/// step 1). Every distance-1 memory flow edge f = x -> y (x != y) that a
/// distance-0 register-flow path P from y back to x closes into a
/// recurrence bounds C_delay by len(P) + min(lat(x), C_reg_com), where
/// len(P) sums the producer latencies of the longest such path. At a
/// P_max p < 1 the floor is the largest bound over the f with
/// p(f) > p + 1e-9; at p = 1 C2 never runs and the floor is 0. `topo` is
/// the loop's distance-0 topological order.
std::vector<int> memory_recurrence_floors(const ir::Loop& loop, const std::vector<int>& lat,
                                          const std::vector<ir::NodeId>& topo, int c_reg,
                                          const std::vector<double>& p_max_values) {
  std::vector<int> floors(p_max_values.size(), 0);
  std::vector<std::size_t> closers;  // the candidate edges f, grouped by y below
  for (std::size_t ei = 0; ei < loop.deps().size(); ++ei) {
    const ir::DepEdge& e = loop.dep(ei);
    if (e.is_memory_flow() && e.distance == 1 && e.src != e.dst) closers.push_back(ei);
  }
  if (closers.empty()) return floors;
  std::stable_sort(closers.begin(), closers.end(), [&](std::size_t a, std::size_t b) {
    return loop.dep(a).dst < loop.dep(b).dst;
  });
  std::vector<std::size_t> pos(lat.size());
  for (std::size_t i = 0; i < topo.size(); ++i) pos[static_cast<std::size_t>(topo[i])] = i;
  std::vector<int> len(lat.size());
  for (std::size_t i = 0; i < closers.size();) {
    // Longest distance-0 register-flow paths out of y, in topological
    // order from y on; -1 marks the nodes y does not reach.
    const ir::NodeId y = loop.dep(closers[i]).dst;
    std::fill(len.begin(), len.end(), -1);
    len[static_cast<std::size_t>(y)] = 0;
    for (std::size_t t = pos[static_cast<std::size_t>(y)]; t < topo.size(); ++t) {
      const auto v = static_cast<std::size_t>(topo[t]);
      if (len[v] < 0) continue;
      for (const std::size_t ei : loop.out_edges(topo[t])) {
        const ir::DepEdge& e = loop.dep(ei);
        if (e.distance != 0 || !e.is_register_flow()) continue;
        int& to = len[static_cast<std::size_t>(e.dst)];
        to = std::max(to, len[v] + lat[v]);
      }
    }
    for (; i < closers.size() && loop.dep(closers[i]).dst == y; ++i) {
      const ir::DepEdge& f = loop.dep(closers[i]);
      const auto x = static_cast<std::size_t>(f.src);
      if (len[x] < 0) continue;
      const int bound = len[x] + std::min(lat[x], c_reg);
      for (std::size_t pi = 0; pi < floors.size(); ++pi) {
        const double pm = p_max_values[pi];
        if (pm < 1.0 && f.probability > pm + 1e-9) floors[pi] = std::max(floors[pi], bound);
      }
    }
  }
  return floors;
}

struct SlotCheck {
  bool ok = false;
  int max_new_sync = 0;        ///< largest sync delay introduced by this slot
  const char* reject = nullptr;  ///< "c_delay" or "p_max" when !ok
};

/// Reusable storage for the relaxation ladder. One workspace serves every
/// rung of a tms_schedule call: the Schedule and MRT are reset() instead
/// of reconstructed, the ready queue is a vector with a head index (the
/// only push_front happens on a node that was just popped, so the slot in
/// front of the head is always free), and the scratch vectors keep the
/// per-slot dependence probes allocation-free. Valid for one (loop, mach)
/// pair — reset() does not re-target the Schedule's loop.
struct TmsWorkspace {
  std::optional<Schedule> sched;
  std::optional<ModuloReservationTable> mrt;
  std::vector<ir::NodeId> queue;
  std::size_t qhead = 0;
  std::vector<std::size_t> reg_ps;
  std::vector<std::size_t> mem_ps;
  std::vector<std::size_t> tmp;
  std::vector<std::size_t> reg_v;    ///< check_slot scratch
  std::vector<std::size_t> mem_v;    ///< check_slot scratch
  std::vector<std::size_t> reg_all;  ///< check_slot scratch
  Window window;
};

/// Hot-loop tallies, flushed to the registry once per scheduling pass so
/// the per-slot cost stays free of atomic traffic.
struct SlotTally {
  std::uint64_t tried = 0;
  std::uint64_t mrt = 0;
  std::uint64_t c_delay = 0;
  std::uint64_t p_max = 0;
  std::uint64_t headroom = 0;
  std::uint64_t none = 0;
  std::uint64_t ejected = 0;

  ~SlotTally() {
    obs::Counters& c = obs::counters();
    if (tried != 0) c.sched_slots_tried.add(tried);
    if (mrt != 0) c.sched_slot_reject_mrt.add(mrt);
    if (c_delay != 0) c.sched_slot_reject_c_delay.add(c_delay);
    if (p_max != 0) c.sched_slot_reject_p_max.add(p_max);
    if (headroom != 0) c.sched_slot_reject_headroom.add(headroom);
    if (none != 0) c.sched_window_exhausted.add(none);
    if (ejected != 0) c.sched_ejections.add(ejected);
  }
};

/// ISSUE_SLOT_SELECTION body for one candidate cycle (Fig. 3 lines 20-26),
/// evaluated with `v` tentatively placed at `cycle`.
SlotCheck check_slot(Schedule& ps, const machine::SpmtConfig& cfg, ir::NodeId v, int cycle,
                     int c_delay, double p_max, const std::vector<std::size_t>& reg_ps,
                     const std::vector<std::size_t>& mem_ps, TmsWorkspace& ws) {
  const ir::Loop& loop = ps.loop();
  ps.set_slot(v, cycle);

  SlotCheck result;
  std::vector<std::size_t>& reg_v = ws.reg_v;
  std::vector<std::size_t>& mem_v = ws.mem_v;
  collect_new_reg_deps(ps, loop, v, reg_v);
  collect_new_mem_deps(ps, loop, v, mem_v);

  // C1: every new synchronised dependence within the delay threshold.
  bool ok = true;
  for (const std::size_t ei : reg_v) {
    const int s = ps.sync_delay(loop.dep(ei), cfg);
    result.max_new_sync = std::max(result.max_new_sync, s);
    if (s > c_delay) {
      ok = false;
      result.reject = "c_delay";
      break;
    }
  }

  // C2: only evaluated when v introduces new speculated dependences
  // (Fig. 3 line 26: M_v != {} ==> misspec frequency <= P_max).
  if (ok && !mem_v.empty() && p_max < 1.0) {
    std::vector<std::size_t>& reg_all = ws.reg_all;
    reg_all.assign(reg_ps.begin(), reg_ps.end());
    reg_all.insert(reg_all.end(), reg_v.begin(), reg_v.end());
    double keep = 1.0;
    auto fold_nonpreserved = [&](const std::vector<std::size_t>& mems) {
      for (const std::size_t mi : mems) {
        const ir::DepEdge& m = loop.dep(mi);
        if (!ps.preserved(m, reg_all, cfg)) keep *= 1.0 - m.probability;
      }
    };
    fold_nonpreserved(mem_ps);
    fold_nonpreserved(mem_v);
    if (1.0 - keep > p_max + 1e-12) {
      ok = false;
      result.reject = "p_max";
    }
  }

  ps.clear_slot(v);
  result.ok = ok;
  return result;
}

/// One TMS pass at fixed (II, C_delay, P_max). Within the SMS window,
/// feasible slots are ranked by the sync delay they introduce (smallest
/// first), with the SMS lifetime-minimal preference as tie-break.
///
/// Unlike plain SMS, the pass backtracks: when a node has no feasible
/// slot (typically because an early-placed speculated-dependence
/// consumer empties a two-sided window, or a predecessor landed on a row
/// that strands its consumers), the blocking placed neighbours are
/// ejected and re-queued, bounded by a global ejection budget. This is
/// the iterative-modulo-scheduling style of recovery, needed because
/// thread-sensitive slot choices drift much further from the
/// lifetime-minimal positions than SMS's ever do.
/// `saw_c2_reject`, when non-null, is set if any candidate slot was
/// rejected by the misspeculation-frequency check (C2) — the signal the
/// ladder uses to prove a whole P_max sweep redundant.
std::optional<Schedule> try_thresholds(const ir::Loop& loop, const machine::MachineModel& mach,
                                       const machine::SpmtConfig& cfg, int ii, int c_delay,
                                       double p_max, const std::vector<ir::NodeId>& order,
                                       const std::vector<int>& depth, TmsWorkspace& ws,
                                       bool* saw_c2_reject = nullptr) {
  if (ws.sched.has_value()) {
    ws.sched->reset(ii);
  } else {
    ws.sched.emplace(loop, mach, ii);
  }
  if (ws.mrt.has_value()) {
    ws.mrt->reset(ii);
  } else {
    ws.mrt.emplace(mach, ii);
  }
  Schedule& ps = *ws.sched;
  ModuloReservationTable& mrt = *ws.mrt;
  std::vector<std::size_t>& reg_ps = ws.reg_ps;  // RegDep(PS), kept incrementally
  std::vector<std::size_t>& mem_ps = ws.mem_ps;  // MemDep(PS)
  std::vector<std::size_t>& tmp = ws.tmp;
  reg_ps.clear();
  mem_ps.clear();

  ws.queue.assign(order.begin(), order.end());
  ws.qhead = 0;
  int ejections_left = 2 * loop.num_instrs() + 16;
  SlotTally tally;

  while (ws.qhead < ws.queue.size()) {
    const ir::NodeId v = ws.queue[ws.qhead++];
    scheduling_window(ps, v, depth[static_cast<std::size_t>(v)], ws.window);
    const Window& w = ws.window;

    // Successor headroom: a producer placed in the last rows of the II
    // strands any still-unscheduled same-iteration consumer — the
    // consumer would have to cross a stage with
    // sync = row(v) + lat(v) + C_reg_com - row(consumer) > C_delay for
    // every legal row. Reserve the dead-zone rows up front.
    int headroom = 0;
    {
      bool pending_succ = false;
      for (const std::size_t ei : loop.out_edges(v)) {
        const ir::DepEdge& e = loop.dep(ei);
        if (e.distance == 0 && e.type == ir::DepType::kFlow && e.dst != v &&
            !ps.is_placed(e.dst)) {
          pending_succ = true;
          break;
        }
      }
      if (pending_succ) {
        headroom =
            std::max(0, mach.latency(loop.instr(v).op) + cfg.reg_comm_cycles() - c_delay);
      }
    }

    int best_cycle = 0;
    int best_sync = 0;
    bool found = false;
    for (std::size_t i = 0; i < w.candidates.size(); ++i) {
      const int c = w.candidates[i];
      ++tally.tried;
      if (headroom > 0) {
        const int row = ((c % ii) + ii) % ii;
        if (row >= ii - headroom) {
          ++tally.headroom;
          TMS_TRACE_INSTANT("sched", "slot.reject", obs::targ("node", v), obs::targ("row", row),
                            obs::targ("reason", "headroom"));
          continue;
        }
      }
      if (!mrt.can_place(loop.instr(v).op, c)) {
        ++tally.mrt;
        TMS_TRACE_INSTANT("sched", "slot.reject", obs::targ("node", v),
                          obs::targ("row", ((c % ii) + ii) % ii), obs::targ("reason", "mrt"));
        continue;
      }
      const SlotCheck sc = check_slot(ps, cfg, v, c, c_delay, p_max, reg_ps, mem_ps, ws);
      if (!sc.ok) {
        if (sc.reject != nullptr && sc.reject[0] == 'c') {
          ++tally.c_delay;
        } else {
          ++tally.p_max;
          if (saw_c2_reject != nullptr) *saw_c2_reject = true;
        }
        TMS_TRACE_INSTANT("sched", "slot.reject", obs::targ("node", v),
                          obs::targ("row", ((c % ii) + ii) % ii),
                          obs::targ("reason", sc.reject != nullptr ? sc.reject : "?"));
        continue;
      }
      // Window order already encodes the SMS preference, so strict
      // improvement keeps the earliest (most lifetime-friendly) slot
      // among equals.
      if (!found || sc.max_new_sync < best_sync) {
        found = true;
        best_cycle = c;
        best_sync = sc.max_new_sync;
        if (best_sync == 0) break;  // cannot do better than no new stall
      }
    }
    if (!found) {
      ++tally.none;
      TMS_TRACE_INSTANT("sched", "slot.none", obs::targ("node", v),
                        obs::targ("candidates", w.candidates.size()));
      // Backtrack: eject the placed successors (they bound the window
      // from above), or failing that the placed predecessors, re-queue
      // them, and retry v immediately.
      auto eject = [&](bool successors) {
        bool any = false;
        const auto& edges = successors ? loop.out_edges(v) : loop.in_edges(v);
        for (const std::size_t ei : edges) {
          const ir::DepEdge& e = loop.dep(ei);
          const ir::NodeId other = successors ? e.dst : e.src;
          if (other == v || !ps.is_placed(other)) continue;
          mrt.remove(loop.instr(other).op, ps.slot(other));
          ps.clear_slot(other);
          ws.queue.push_back(other);
          ++tally.ejected;
          TMS_TRACE_INSTANT("sched", "eject", obs::targ("node", v), obs::targ("victim", other));
          any = true;
        }
        return any;
      };
      if (ejections_left-- <= 0) return std::nullopt;
      if (!eject(/*successors=*/true) && !eject(/*successors=*/false)) {
        return std::nullopt;  // unconstrained failure: resources alone
      }
      // Placements changed: drop the ejected nodes' dependences.
      drop_unplaced(ps, loop, reg_ps);
      drop_unplaced(ps, loop, mem_ps);
      // Retry v first: it was just popped, so the slot ahead of qhead is
      // free and this is a plain deque push_front.
      TMS_ASSERT(ws.qhead > 0);
      ws.queue[--ws.qhead] = v;
      continue;
    }

    mrt.place(loop.instr(v).op, best_cycle);
    ps.set_slot(v, best_cycle);
    collect_new_reg_deps(ps, loop, v, tmp);
    reg_ps.insert(reg_ps.end(), tmp.begin(), tmp.end());
    collect_new_mem_deps(ps, loop, v, tmp);
    mem_ps.insert(mem_ps.end(), tmp.begin(), tmp.end());
  }
  return ps;
}

}  // namespace

std::optional<TmsResult> tms_schedule(const ir::Loop& loop, const machine::MachineModel& mach,
                                      const machine::SpmtConfig& cfg, const TmsOptions& opts) {
  TMS_ASSERT_MSG(!loop.validate().has_value(), "loop must be well-formed");
  cfg.check();
  const int mii = min_ii(loop, mach);
  const std::vector<ir::NodeId> order = sms_node_order(loop, mach);
  const std::vector<int> lat = mach.latencies(loop);
  const std::vector<ir::NodeId> topo = ir::topo_order_intra(loop);
  const std::vector<int> depth = ir::node_depths(loop, lat, topo);

  int max_lat = 1;
  for (const int l : lat) max_lat = std::max(max_lat, l);

  // Fig. 3 enumerates (II, C_delay) pairs in increasing F order and stops
  // at the first schedulable pair. A literal F_min++ sweep re-tries the
  // same expensive schedule attempts many times, so we implement the same
  // minimisation as: for each II (ascending), binary-search the smallest
  // schedulable C_delay (feasibility is monotone in the threshold), and
  // keep the candidate minimising the full per-iteration cost
  // F(II, C_delay) + misspec_penalty * P_M. The II sweep stops once no
  // larger II can beat the incumbent or win its tie-break, which bounds
  // the search exactly as the paper's "II can be bounded by the longest
  // critical path" remark intends. Two lower bounds prove that: F(II, 0),
  // and the recurrence floors below.
  //
  // Recurrence floors (docs/ALGORITHMS.md, step 1): a register-flow
  // self-edge x -> x of distance d >= 1 has d_ker = d whatever the II and
  // the placement, so every complete schedule synchronises it at
  // lat(x) + C_reg_com and forwards x over a channel of at least d hops.
  int cd_floor = 0;     // every schedule's C_delay is >= cd_floor
  int pairs_floor = 0;  // and its comm_pairs_per_iter >= pairs_floor
  {
    std::vector<int> self_hops(lat.size(), 0);
    for (const ir::DepEdge& e : loop.deps()) {
      if (e.src != e.dst || !e.is_register_flow() || e.distance < 1) continue;
      const auto x = static_cast<std::size_t>(e.src);
      cd_floor = std::max(cd_floor, lat[x] + cfg.reg_comm_cycles());
      self_hops[x] = std::max(self_hops[x], e.distance);
    }
    for (const int h : self_hops) pairs_floor += h;
  }
  // Memory-recurrence floors (docs/ALGORITHMS.md, step 1): a recurrence
  // closed through a memory dependence f makes every complete schedule
  // cross threads on exactly one of its edges. If a register edge
  // crosses, C1 bounds its sync; if f crosses, C2 at a P_max below p(f)
  // passes only when a sync already checked against C_delay covers f's
  // gap. So no rung below mem_floor[pi] can succeed at p_max_values[pi].
  const std::vector<int> mem_floor = memory_recurrence_floors(
      loop, lat, topo, cfg.reg_comm_cycles(), opts.p_max_values);

  struct Best {
    Schedule schedule;
    double total;
    int c_delay;
    double p_max;
    double f;
    int actual_c_delay;
    int comm_pairs;
  };
  std::optional<Best> best;
  int pairs_tried = 0;
  int plateau = 0;  // consecutive non-improving IIs at the incumbent's F

  // One relaxation-ladder rung: a fixed-threshold pass, traced as a span
  // so --explain can segment the per-slot events it encloses. With
  // ladder_reuse the workspace persists across rungs so every attempt
  // recycles the same Schedule/MRT/queue storage; without it each rung
  // constructs from scratch (the differential-testing reference). With
  // ladder_reuse a rung below the memory-recurrence floor is answered
  // infeasible without running. A run could have met a C2 rejection, so
  // the rung marks its sweep as not C2-clean: a later sweep that would
  // have been replayed from it runs instead, to the same result.
  TmsWorkspace shared_ws;
  auto attempt = [&](int ii, int cd_thr, double pm, int floor,
                     bool* saw_c2) -> std::optional<Schedule> {
    if (opts.ladder_reuse && cd_thr < floor) {
      obs::counters().sched_rungs_below_floor.add(1);
      TMS_TRACE_INSTANT("sched", "tms.rung_below_floor", obs::targ("ii", ii),
                        obs::targ("c_delay", cd_thr), obs::targ("p_max", pm),
                        obs::targ("floor", floor));
      *saw_c2 = true;
      return std::nullopt;
    }
    obs::counters().sched_attempts.add(1);
    TMS_TRACE_SPAN(span, "sched", "tms.attempt");
    std::optional<Schedule> s;
    if (opts.ladder_reuse) {
      s = try_thresholds(loop, mach, cfg, ii, cd_thr, pm, order, depth, shared_ws, saw_c2);
    } else {
      TmsWorkspace fresh;
      s = try_thresholds(loop, mach, cfg, ii, cd_thr, pm, order, depth, fresh, saw_c2);
    }
    if (s.has_value()) obs::counters().sched_attempts_feasible.add(1);
    TMS_TRACE_SPAN_ARG(span, obs::targ("ii", ii), obs::targ("c_delay", cd_thr),
                       obs::targ("p_max", pm), obs::targ("feasible", s.has_value() ? 1 : 0));
    return s;
  };

  const int start_ii = std::max(mii, opts.ii_floor);
  for (int ii = start_ii; ii <= start_ii + opts.max_ii_slack; ++ii) {
    if (!recurrences_feasible(loop, mach, ii)) continue;
    if (best.has_value()) {
      // Candidates are judged by achieved C_delay, which can be as low as
      // zero (fully parallel), so the II-monotone lower bound uses 0.
      const double f_floor = cost::per_iter_nomiss(ii, 0, cfg);
      // F is nondecreasing in II at fixed C_delay, so no larger II can
      // strictly beat the incumbent once the floor passes it. Equal-F IIs
      // can still reduce communication (e.g. fold a chain into one
      // stage), so a bounded plateau is scanned for tie-breaks.
      if (f_floor > best->total + 1e-9) break;
      if (f_floor > best->total - 1e-9 && plateau >= opts.plateau_budget) break;
      // An incumbent at both recurrence floors cannot lose a tie-break,
      // so only a strictly lower total could replace it. Every schedule
      // at this II or above totals at least F(II, cd_floor) when its
      // misspeculation penalty is >= 0, and at least II + C_inv + C_spn
      // when it is negative (P_M <= 1 and F >= C_delay).
      if (best->actual_c_delay <= cd_floor && best->comm_pairs <= pairs_floor &&
          std::min(cost::per_iter_nomiss(ii, cd_floor, cfg),
                   static_cast<double>(ii + cfg.c_inv + cfg.c_spn)) > best->total - 1e-9) {
        obs::counters().sched_ii_cutoffs.add(1);
        TMS_TRACE_INSTANT("sched", "tms.ii_cutoff", obs::targ("ii", ii),
                          obs::targ("cd_floor", cd_floor), obs::targ("pairs_floor", pairs_floor));
        break;
      }
    }
    const int cd_lo = cfg.min_c_delay();
    // At cd_ceiling C1 can never bind: the row gap is at most II-1 and the
    // producer latency at most max_lat.
    const int cd_ceiling = ii - 1 + max_lat + cfg.reg_comm_cycles();

    bool ii_improved = false;
    // Every schedule produced during the threshold search is judged by
    // its *achieved* C_delay and misspeculation probability — the
    // thresholds only steer the heuristic, the schedule itself determines
    // the runtime.
    auto consider = [&](Schedule&& s, int cd_thr, double p_max) {
      s.normalise();
      TMS_ASSERT_MSG(!s.validate().has_value(), "TMS produced an invalid schedule");
      const int actual_cd = s.c_delay(cfg);
      const double f = cost::per_iter_nomiss(ii, actual_cd, cfg);
      const double p_m = s.misspec_probability(cfg);
      const double total = f + cost::misspec_penalty(ii, actual_cd, cfg) * p_m;
      const int pairs = plan_communication(s).comm_pairs_per_iter;
      const bool strictly_better = !best.has_value() || total < best->total - 1e-9;
      const bool tie_better =
          best.has_value() && total < best->total + 1e-9 &&
          (actual_cd < best->actual_c_delay ||
           (actual_cd == best->actual_c_delay && pairs < best->comm_pairs));
      if (strictly_better || tie_better) {
        best = Best{std::move(s), total, cd_thr, p_max, f, actual_cd, pairs};
        ii_improved = true;
      }
    };

    // P_max only gates the misspeculation check (C2). If a whole sweep at
    // some threshold produced no C2 rejection anywhere, then any looser
    // threshold makes every slot decision — and therefore every schedule
    // and the entire binary-search trajectory — bit-identical. The sweeps
    // run strictest-first, so the first "clean" sweep proves all later
    // ones redundant; they are skipped by replaying its considered
    // schedules (so tie-breaking and P_max attribution stay exact) and
    // charging the same pairs_tried it consumed.
    double clean_pm = -1.0;     // threshold of the first C2-rejection-free sweep
    int clean_bs_attempts = 0;  // its binary-search attempt count
    std::vector<std::pair<Schedule, int>> clean_considered;  // (schedule, cd_thr), in order

    for (std::size_t pi = 0; pi < opts.p_max_values.size(); ++pi) {
      const double p_max = opts.p_max_values[pi];
      if (opts.ladder_reuse && clean_pm >= 0.0 && p_max >= clean_pm) {
        ++pairs_tried;
        if (pairs_tried > opts.max_pair_attempts) break;
        pairs_tried += clean_bs_attempts;
        obs::counters().sched_pmax_sweeps_skipped.add(1);
        TMS_TRACE_INSTANT("sched", "tms.sweep_skipped", obs::targ("ii", ii),
                          obs::targ("p_max", p_max));
        for (const auto& [cs, cd_thr] : clean_considered) {
          consider(Schedule(cs), cd_thr, p_max);
        }
        continue;
      }
      ++pairs_tried;
      if (pairs_tried > opts.max_pair_attempts) break;
      bool sweep_saw_c2 = false;
      int bs_attempts = 0;
      const bool record = opts.ladder_reuse && clean_pm < 0.0;
      std::optional<Schedule> at_ceiling =
          attempt(ii, cd_ceiling, p_max, mem_floor[pi], &sweep_saw_c2);
      if (at_ceiling.has_value()) {
        if (record) clean_considered.emplace_back(*at_ceiling, cd_ceiling);
        consider(std::move(*at_ceiling), cd_ceiling, p_max);

        // Binary search for the smallest feasible C1 threshold; every
        // feasible point is a candidate.
        int lo = cd_lo;
        int hi = cd_ceiling;
        while (lo < hi) {
          const int mid = lo + (hi - lo) / 2;
          ++pairs_tried;
          ++bs_attempts;
          std::optional<Schedule> s = attempt(ii, mid, p_max, mem_floor[pi], &sweep_saw_c2);
          if (s.has_value()) {
            if (record) clean_considered.emplace_back(*s, mid);
            consider(std::move(*s), mid, p_max);
            hi = mid;
          } else {
            lo = mid + 1;
          }
        }
      }
      if (record && !sweep_saw_c2) {
        clean_pm = p_max;
        clean_bs_attempts = bs_attempts;
      } else if (record) {
        clean_considered.clear();
      }
    }
    plateau = ii_improved ? 0 : plateau + 1;
    if (pairs_tried > opts.max_pair_attempts) break;
  }

  if (!best.has_value()) {
    TMS_TRACE_INSTANT("sched", "tms.result", obs::targ("feasible", 0));
    return std::nullopt;
  }
  {
    obs::Counters& c = obs::counters();
    c.sched_schedules.add(1);
    c.sched_ii_minus_mii.record(static_cast<std::uint64_t>(
        std::max(0, best->schedule.ii() - mii)));
    c.sched_tms_c_delay.record(static_cast<std::uint64_t>(std::max(0, best->actual_c_delay)));
  }
  TMS_TRACE_INSTANT("sched", "tms.result", obs::targ("ii", best->schedule.ii()),
                    obs::targ("c_delay", best->actual_c_delay), obs::targ("p_max", best->p_max),
                    obs::targ("feasible", 1));
  TmsResult r{std::move(best->schedule), mii,       best->c_delay,
              best->p_max,               best->f,   0.0,
              pairs_tried};
  r.misspec_probability = r.schedule.misspec_probability(cfg);
  return r;
}

}  // namespace tms::sched
