// --explain renderer: turns a captured trace of one loop's TMS run into
// a human-readable narrative of the relaxation ladder — which (II,
// C_delay, p_max) combinations were attempted, why slots were rejected,
// and where the scheduler finally landed relative to the MII.
//
// The renderer knows nothing about the scheduler types, so tms_obs
// stays below tms_sched in the link order. Callers (tools/tmsbatch.cpp)
// schedule the loop with tracing armed, snapshot the buffer, and pass
// the events here together with the little context the trace does not
// carry or may have dropped: the MII, node names, the result and the
// dropped-event count.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace tms::obs {

struct ExplainInput {
  std::string loop_name;
  std::vector<std::string> node_names;  ///< index -> instruction name, for "hardest nodes"
  int mii = 0;
  std::string scheduler;     ///< "tms" or "sms", for the header
  std::string f_breakdown;   ///< optional cost-model summary line(s), printed verbatim
  std::vector<TraceEvent> events;  ///< arrival-order snapshot for this loop
  /// Events the trace buffer dropped while `events` was captured. A full
  /// buffer keeps the oldest events, so nonzero means the ladder is a
  /// prefix of the run.
  std::uint64_t dropped_events = 0;
  /// Where the search landed, from the scheduler's result rather than
  /// the trace, whose last event a full buffer drops first.
  struct Landing {
    int ii = 0;
    int c_delay = 0;  ///< achieved, not the threshold
    double p_max = 0.0;
  };
  std::optional<Landing> result;  ///< nullopt = no schedule found
};

/// Renders the narrative. Events it understands (all cat "sched"):
///   - 'X' "tms.attempt"  args: ii, c_delay, p_max, feasible
///   - 'i' "slot.reject"  args: node, row, reason
///   - 'i' "slot.none"    args: node       (window exhausted)
///   - 'i' "eject"        args: node, victim
///   - 'i' "tms.rung_below_floor" args: ii, c_delay, p_max, floor (a rung not run)
///   - 'i' "tms.sweep_skipped" args: ii, p_max (a P_max sweep replayed, not run)
///   - 'i' "tms.ii_cutoff" args: ii, cd_floor, pairs_floor (why the II sweep stopped)
/// Unknown events are ignored, so the renderer tolerates traces that
/// include surrounding pipeline activity. The Result line always comes
/// from `result`; when events were dropped, a line under the ladder says
/// the ladder and its totals are partial.
std::string render_tms_explain(const ExplainInput& in);

}  // namespace tms::obs
