// Thread-Sensitive Modulo Scheduling (the paper's Section 4.3, Fig. 3).
//
// TMS generalises SMS for SpMT multicores. Instead of minimising II, it
// minimises the cost model's per-iteration time F(II, C_delay) =
// max(C_spn, C_ci, C_delay, (II + C_ci + max(C_spn, C_delay))/ncore),
// enumerating (II, C_delay) pairs in increasing F order. For each pair a
// schedule is attempted in which
//   C1: every inter-thread register dependence has sync(x,y) <= C_delay
//       (Definition 2), and
//   C2: the misspeculation frequency of the non-preserved inter-thread
//       memory dependences stays <= P_max (Definitions 3-4, Eq. 3).
// Slot selection additionally prefers, within the SMS window, the cycle
// that introduces the smallest synchronisation delay — this is what turns
// the motivating example's 11-cycle stall into a 5-cycle one.
//
// The II sweep ends as soon as no larger II can replace the incumbent:
// when F(II, 0) passes it, or when it sits at the loop's recurrence
// floors (the C_delay and communication pairs every register-flow
// self-edge forces on any schedule) and the cost lower bound at those
// floors has reached it (docs/ALGORITHMS.md, step 1). Both stops are
// exact: the result is the one a sweep to max_ii_slack would return.
//
// Within an II, a rung whose C_delay threshold is below the loop's
// memory-recurrence floor at its P_max — the C_delay every schedule needs
// when a recurrence closes through a memory dependence more likely than
// P_max — is answered infeasible without running (same step). It is
// charged to pairs_tried and counted in sched.rungs_below_floor.
#pragma once

#include <optional>
#include <vector>

#include "machine/spmt_config.hpp"
#include "sched/schedule.hpp"

namespace tms::sched {

struct TmsOptions {
  /// Misspeculation-frequency thresholds, tried strictest-first for each
  /// (II, C_delay) pair (Fig. 3 line 1; "several values can be tried").
  std::vector<double> p_max_values = {0.01, 0.10, 1.0};
  /// Budget on II above MII, as in SMS. The sweep usually stops well
  /// before it (see the header comment).
  int max_ii_slack = 256;
  /// Cap on the number of (II, C_delay) pairs attempted before giving up.
  int max_pair_attempts = 20000;
  /// How many consecutive non-improving IIs to scan at the incumbent's F
  /// value before stopping (equal-F schedules can still trade C_delay or
  /// communication pairs down).
  int plateau_budget = 8;
  /// Lower bound on the II sweep (register-pressure wrappers raise it);
  /// 0 means start at MII.
  int ii_floor = 0;
  /// Reuse one workspace (Schedule, MRT, queues, scratch) across the
  /// relaxation ladder's rungs, skip P_max sweeps that a stricter
  /// C2-rejection-free sweep already proved identical, and skip rungs
  /// below the memory-recurrence floor. All are exactly
  /// outcome-preserving — same schedule, thresholds, and pairs_tried —
  /// and the property and tms suites hold this flag to account:
  /// disabling it runs every rung from freshly constructed state as the
  /// reference.
  bool ladder_reuse = true;
};

struct TmsResult {
  Schedule schedule;        ///< complete and normalised
  int mii = 0;
  int c_delay_threshold = 0;  ///< the C_delay the schedule was found under
  double p_max = 0.0;         ///< the P_max the schedule was found under
  double f_value = 0.0;       ///< F(II, C_delay) of the accepted schedule
  double misspec_probability = 0.0;  ///< P_M of the final schedule (Eq. 3)
  int pairs_tried = 0;        ///< (II, C_delay) combinations attempted before the sweep stopped
};

std::optional<TmsResult> tms_schedule(const ir::Loop& loop, const machine::MachineModel& mach,
                                      const machine::SpmtConfig& cfg,
                                      const TmsOptions& opts = {});

}  // namespace tms::sched
