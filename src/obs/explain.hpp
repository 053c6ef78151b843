// --explain renderer: turns a captured trace of one loop's TMS run into
// a human-readable narrative of the relaxation ladder — which (II,
// C_delay, p_max) combinations were attempted, why slots were rejected,
// and where the scheduler finally landed relative to the MII.
//
// The renderer consumes trace events only; it knows nothing about the
// scheduler types, so tms_obs stays below tms_sched in the link order.
// Callers (tools/tmsbatch.cpp) schedule the loop with tracing armed,
// snapshot the buffer, and pass the events here together with the
// little context the trace does not carry.
#pragma once

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
};

/// Renders the narrative. Events it understands (all cat "sched"):
///   - 'X' "tms.attempt"  args: ii, c_delay, p_max, feasible
///   - 'i' "slot.reject"  args: node, row, reason
///   - 'i' "slot.none"    args: node       (window exhausted)
///   - 'i' "eject"        args: node, victim
///   - 'i' "tms.ii_cutoff" args: ii, cd_floor, pairs_floor (why the II sweep stopped)
///   - 'i' "tms.result"   args: ii, c_delay, p_max, feasible
/// Unknown events are ignored, so the renderer tolerates traces that
/// include surrounding pipeline activity.
std::string render_tms_explain(const ExplainInput& in);

}  // namespace tms::obs
