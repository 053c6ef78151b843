#include "obs/explain.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <map>

namespace tms::obs {
namespace {

std::int64_t arg_int(const TraceEvent& e, const char* key, std::int64_t fallback) {
  for (int i = 0; i < e.nargs; ++i) {
    if (std::strcmp(e.args[i].key, key) == 0 && e.args[i].kind == TraceArg::Kind::kInt) {
      return e.args[i].i;
    }
  }
  return fallback;
}

double arg_double(const TraceEvent& e, const char* key, double fallback) {
  for (int i = 0; i < e.nargs; ++i) {
    if (std::strcmp(e.args[i].key, key) != 0) continue;
    if (e.args[i].kind == TraceArg::Kind::kDouble) return e.args[i].d;
    if (e.args[i].kind == TraceArg::Kind::kInt) return static_cast<double>(e.args[i].i);
  }
  return fallback;
}

const char* arg_str(const TraceEvent& e, const char* key, const char* fallback) {
  for (int i = 0; i < e.nargs; ++i) {
    if (std::strcmp(e.args[i].key, key) == 0 && e.args[i].kind == TraceArg::Kind::kStr) {
      return e.args[i].s != nullptr ? e.args[i].s : fallback;
    }
  }
  return fallback;
}

struct Tally {
  std::int64_t reject_mrt = 0;
  std::int64_t reject_c_delay = 0;
  std::int64_t reject_p_max = 0;
  std::int64_t reject_headroom = 0;
  std::int64_t window_exhausted = 0;
  std::int64_t ejections = 0;

  std::int64_t rejects() const {
    return reject_mrt + reject_c_delay + reject_p_max + reject_headroom;
  }
  void clear() { *this = Tally{}; }
};

/// One line of the ladder: a rung that ran, a rung answered infeasible
/// below the memory-recurrence floor without running, or a P_max sweep
/// replayed from a stricter C2-clean one.
struct Attempt {
  enum class Kind { kRan, kBelowFloor, kSweepSkipped };
  Kind kind = Kind::kRan;
  int ii = 0;
  int c_delay = 0;
  double p_max = 0.0;
  bool feasible = false;
  std::int64_t floor = 0;
  Tally tally;
};

std::string fmt(const char* f, ...) {
  char buf[256];
  va_list ap;
  va_start(ap, f);
  std::vsnprintf(buf, sizeof buf, f, ap);
  va_end(ap);
  return buf;
}

void append_tally(std::string& out, const Tally& t) {
  if (t.rejects() == 0 && t.window_exhausted == 0 && t.ejections == 0) return;
  out += "  [rejects:";
  if (t.reject_mrt != 0) out += fmt(" mrt=%lld", static_cast<long long>(t.reject_mrt));
  if (t.reject_c_delay != 0) out += fmt(" c_delay=%lld", static_cast<long long>(t.reject_c_delay));
  if (t.reject_p_max != 0) out += fmt(" p_max=%lld", static_cast<long long>(t.reject_p_max));
  if (t.reject_headroom != 0)
    out += fmt(" headroom=%lld", static_cast<long long>(t.reject_headroom));
  if (t.rejects() == 0) out += " none";
  if (t.window_exhausted != 0)
    out += fmt("; window-exhausted=%lld", static_cast<long long>(t.window_exhausted));
  if (t.ejections != 0) out += fmt("; ejections=%lld", static_cast<long long>(t.ejections));
  out += "]";
}

}  // namespace

std::string render_tms_explain(const ExplainInput& in) {
  std::vector<Attempt> attempts;
  Tally running;
  Tally total;
  std::map<std::int64_t, std::int64_t> rejects_by_node;
  const TraceEvent* result = nullptr;
  const TraceEvent* cutoff = nullptr;

  for (const TraceEvent& e : in.events) {
    if (std::strcmp(e.cat, "sched") != 0) continue;
    if (e.phase == 'i' && std::strcmp(e.name, "slot.reject") == 0) {
      const char* reason = arg_str(e, "reason", "?");
      if (std::strcmp(reason, "mrt") == 0) ++running.reject_mrt;
      else if (std::strcmp(reason, "c_delay") == 0) ++running.reject_c_delay;
      else if (std::strcmp(reason, "p_max") == 0) ++running.reject_p_max;
      else if (std::strcmp(reason, "headroom") == 0) ++running.reject_headroom;
      ++rejects_by_node[arg_int(e, "node", -1)];
    } else if (e.phase == 'i' && std::strcmp(e.name, "slot.none") == 0) {
      ++running.window_exhausted;
    } else if (e.phase == 'i' && std::strcmp(e.name, "eject") == 0) {
      ++running.ejections;
    } else if (e.phase == 'X' && std::strcmp(e.name, "tms.attempt") == 0) {
      Attempt a;
      a.ii = static_cast<int>(arg_int(e, "ii", 0));
      a.c_delay = static_cast<int>(arg_int(e, "c_delay", 0));
      a.p_max = arg_double(e, "p_max", 0.0);
      a.feasible = arg_int(e, "feasible", 0) != 0;
      a.tally = running;
      attempts.push_back(a);
      total.reject_mrt += running.reject_mrt;
      total.reject_c_delay += running.reject_c_delay;
      total.reject_p_max += running.reject_p_max;
      total.reject_headroom += running.reject_headroom;
      total.window_exhausted += running.window_exhausted;
      total.ejections += running.ejections;
      running.clear();
    } else if (e.phase == 'i' && std::strcmp(e.name, "tms.rung_below_floor") == 0) {
      Attempt a;
      a.kind = Attempt::Kind::kBelowFloor;
      a.ii = static_cast<int>(arg_int(e, "ii", 0));
      a.c_delay = static_cast<int>(arg_int(e, "c_delay", 0));
      a.p_max = arg_double(e, "p_max", 0.0);
      a.floor = arg_int(e, "floor", 0);
      attempts.push_back(a);
    } else if (e.phase == 'i' && std::strcmp(e.name, "tms.sweep_skipped") == 0) {
      Attempt a;
      a.kind = Attempt::Kind::kSweepSkipped;
      a.ii = static_cast<int>(arg_int(e, "ii", 0));
      a.p_max = arg_double(e, "p_max", 0.0);
      attempts.push_back(a);
    } else if (e.phase == 'i' && std::strcmp(e.name, "tms.ii_cutoff") == 0) {
      cutoff = &e;
    } else if (e.phase == 'i' && std::strcmp(e.name, "tms.result") == 0) {
      result = &e;
    }
  }

  std::string out;
  out += fmt("=== %s explain: %s ===\n", in.scheduler.empty() ? "tms" : in.scheduler.c_str(),
             in.loop_name.c_str());
  out += fmt("MII = %d  (resource/recurrence lower bound)\n", in.mii);
  if (!in.f_breakdown.empty()) out += in.f_breakdown + "\n";

  if (attempts.empty()) {
    out += "no scheduling attempts recorded (was tracing armed?)\n";
    return out;
  }

  out += "\nRelaxation ladder (threshold attempts, in order):\n";
  int last_ii = -1;
  std::size_t ran = 0;
  std::size_t below_floor = 0;
  std::size_t sweeps_skipped = 0;
  for (const Attempt& a : attempts) {
    if (a.ii != last_ii) {
      out += fmt("II = %d (MII%+d):\n", a.ii, a.ii - in.mii);
      last_ii = a.ii;
    }
    switch (a.kind) {
      case Attempt::Kind::kRan:
        ++ran;
        out += fmt("  C_delay <= %-3d p_max = %.2f  ->  %s", a.c_delay, a.p_max,
                   a.feasible ? "feasible  " : "infeasible");
        append_tally(out, a.tally);
        break;
      case Attempt::Kind::kBelowFloor:
        ++below_floor;
        out += fmt("  C_delay <= %-3d p_max = %.2f  ->  infeasible  [not run: below the "
                   "memory-recurrence floor C_delay %lld]",
                   a.c_delay, a.p_max, static_cast<long long>(a.floor));
        break;
      case Attempt::Kind::kSweepSkipped:
        ++sweeps_skipped;
        out += fmt("  p_max = %.2f sweep skipped: a stricter sweep met no C2 rejection, so "
                   "its schedules are replayed",
                   a.p_max);
        break;
    }
    out += "\n";
  }
  if (cutoff != nullptr) {
    const int ii = static_cast<int>(arg_int(*cutoff, "ii", 0));
    out += fmt("Sweep stopped before II = %d (MII%+d): the incumbent sits at the recurrence "
               "floors (C_delay %lld, %lld comm pairs), so no larger II can beat it\n",
               ii, ii - in.mii, static_cast<long long>(arg_int(*cutoff, "cd_floor", 0)),
               static_cast<long long>(arg_int(*cutoff, "pairs_floor", 0)));
  }

  out += "\nTotals: ";
  out += fmt("%zu threshold attempts", ran);
  if (below_floor != 0) out += fmt(", %zu rungs below the floor not run", below_floor);
  if (sweeps_skipped != 0) out += fmt(", %zu P_max sweeps skipped", sweeps_skipped);
  append_tally(out, total);
  out += "\n";

  if (!rejects_by_node.empty()) {
    std::vector<std::pair<std::int64_t, std::int64_t>> ranked(rejects_by_node.begin(),
                                                              rejects_by_node.end());
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& a, const auto& b) { return a.second > b.second; });
    out += "Hardest nodes (most slot rejections):\n";
    const std::size_t top = std::min<std::size_t>(5, ranked.size());
    for (std::size_t i = 0; i < top; ++i) {
      const std::int64_t node = ranked[i].first;
      std::string name = "node#" + std::to_string(node);
      if (node >= 0 && static_cast<std::size_t>(node) < in.node_names.size()) {
        name = in.node_names[static_cast<std::size_t>(node)];
      }
      out += fmt("  %-24s %lld rejections\n", name.c_str(),
                 static_cast<long long>(ranked[i].second));
    }
  }

  if (result != nullptr) {
    const bool ok = arg_int(*result, "feasible", 0) != 0;
    if (ok) {
      const int ii = static_cast<int>(arg_int(*result, "ii", 0));
      out += fmt("\nResult: schedule found at II = %d (MII%+d), C_delay = %lld, p_max = %.2f\n",
                 ii, ii - in.mii, static_cast<long long>(arg_int(*result, "c_delay", 0)),
                 arg_double(*result, "p_max", 0.0));
    } else {
      out += "\nResult: no feasible schedule within the II search range\n";
    }
  }
  return out;
}

}  // namespace tms::obs
