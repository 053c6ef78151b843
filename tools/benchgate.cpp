// benchgate — produce and gate the committed perf trajectory.
//
//   benchgate run [--out FILE] [--pr N] [--baseline FILE] [--quick] [--jobs N]
//                 [--scenario NAME]
//       Runs the six canonical scenarios (bench/scenarios) and writes a
//       bench-trajectory-v1 document. With --baseline, that file's
//       scenarios are embedded as the "baseline" section, so a committed
//       BENCH_<pr>.json records both the pre-change measurement and the
//       claimed improvement in one artifact. --scenario restricts the run
//       to one scenario (repeatable) — for iterating locally; a committed
//       trajectory always carries all six.
//
//   benchgate compare BASELINE CURRENT
//       Diffs the gated metrics (scenarios.hpp trajectory_metrics) of two
//       trajectory files with per-metric tolerance bands; exit 1 on any
//       out-of-band regression. This is the CI gate.
//
//   benchgate show FILE
//       Renders a trajectory file (and its embedded baseline, if any) as
//       a table.
//
// See docs/BENCHMARKS.md for the schema and the commit policy.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "scenarios.hpp"
#include "support/json_parse.hpp"
#include "support/parse.hpp"
#include "support/table.hpp"

using namespace tms;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: benchgate run [--out FILE] [--pr N] [--baseline FILE] [--quick] "
               "[--jobs N] [--scenario NAME]\n"
               "       benchgate compare BASELINE CURRENT\n"
               "       benchgate show FILE\n");
  return 2;
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parses `path` as a bench-trajectory-v1 file; prints an error and
/// returns empty scenarios on failure.
std::vector<bench::ScenarioResult> load_scenarios(const std::string& path) {
  const auto text = read_file(path);
  if (!text.has_value()) {
    std::fprintf(stderr, "benchgate: cannot read %s\n", path.c_str());
    return {};
  }
  const auto parsed = support::parse_json(*text);
  if (const auto* err = std::get_if<std::string>(&parsed)) {
    std::fprintf(stderr, "benchgate: %s: %s\n", path.c_str(), err->c_str());
    return {};
  }
  auto scenarios = bench::scenarios_from_json(std::get<support::JsonValue>(parsed));
  if (scenarios.empty()) {
    std::fprintf(stderr, "benchgate: %s is not a bench-trajectory-v1 file\n", path.c_str());
  }
  return scenarios;
}

void print_scenarios(const char* title, const std::vector<bench::ScenarioResult>& scenarios) {
  std::printf("%s\n", title);
  support::TextTable t({"Scenario", "Metric", "Value"});
  for (const bench::ScenarioResult& s : scenarios) {
    for (const auto& [k, v] : s.values) {
      t.add_row({s.name, k, support::TextTable::num(v, 2)});
    }
  }
  std::printf("%s\n", t.render().c_str());
}

int cmd_run(int argc, char** argv) {
  bench::ScenarioOptions opts;
  std::string out_path;
  std::string baseline_path;
  std::vector<std::string> only;
  int pr = 0;
  for (int i = 2; i < argc; ++i) {
    const char* a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (std::strcmp(a, "--quick") == 0) {
      opts = bench::quick_options();
    } else if (std::strcmp(a, "--out") == 0) {
      if (const char* v = next()) out_path = v; else return usage();
    } else if (std::strcmp(a, "--baseline") == 0) {
      if (const char* v = next()) baseline_path = v; else return usage();
    } else if (std::strcmp(a, "--pr") == 0) {
      const char* v = next();
      if (v == nullptr || support::parse_int_flag("--pr", v, pr)) return usage();
    } else if (std::strcmp(a, "--jobs") == 0) {
      const char* v = next();
      if (v == nullptr || support::parse_int_flag("--jobs", v, opts.jobs)) return usage();
    } else if (std::strcmp(a, "--scenario") == 0) {
      if (const char* v = next()) only.emplace_back(v); else return usage();
    } else {
      return usage();
    }
  }

  std::vector<bench::ScenarioResult> baseline;
  std::string baseline_label;
  if (!baseline_path.empty()) {
    baseline = load_scenarios(baseline_path);
    if (baseline.empty()) return 1;
    baseline_label = "pre-change measurement (" + baseline_path + ")";
  }

  std::vector<bench::ScenarioResult> scenarios;
  if (only.empty()) {
    scenarios = bench::run_all_scenarios(opts);
  } else {
    using Runner = bench::ScenarioResult (*)(const bench::ScenarioOptions&);
    const std::pair<const char*, Runner> runners[] = {
        {"sched_single", bench::run_sched_single},
        {"batch_throughput", bench::run_batch_throughput},
        {"serve_e2e", bench::run_serve_e2e},
        {"cluster_scaling", bench::run_cluster_scaling},
        {"sim_scaling", bench::run_sim_scaling},
        {"policy_compare", bench::run_policy_compare},
    };
    for (const std::string& name : only) {
      bool found = false;
      for (const auto& [rname, run] : runners) {
        if (name == rname) {
          scenarios.push_back(run(opts));
          found = true;
          break;
        }
      }
      if (!found) {
        std::fprintf(stderr, "benchgate: unknown scenario %s\n", name.c_str());
        return usage();
      }
    }
  }
  print_scenarios("benchgate scenarios:", scenarios);

  const std::string json = bench::trajectory_json(scenarios, pr, baseline_label, baseline);
  if (out_path.empty()) {
    std::printf("%s", json.c_str());
  } else {
    std::ofstream out(out_path);
    if (!out || !(out << json)) {
      std::fprintf(stderr, "benchgate: cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

int cmd_compare(int argc, char** argv) {
  if (argc != 4) return usage();
  const std::vector<bench::ScenarioResult> baseline = load_scenarios(argv[2]);
  const std::vector<bench::ScenarioResult> current = load_scenarios(argv[3]);
  if (baseline.empty() || current.empty()) return 1;

  const std::vector<bench::MetricDelta> deltas = bench::compare_trajectories(baseline, current);
  support::TextTable t({"Metric", "Baseline", "Current", "Worse by", "Band", "Verdict"});
  int regressions = 0;
  for (const bench::MetricDelta& d : deltas) {
    if (d.missing) {
      t.add_row({d.metric, "-", "-", "-", "-", "skipped"});
      continue;
    }
    if (d.regression) ++regressions;
    t.add_row({d.metric, support::TextTable::num(d.baseline, 2),
               support::TextTable::num(d.current, 2), support::TextTable::pct(d.worse_pct),
               "+" + support::TextTable::pct(d.tolerance_pct, 0),
               d.regression ? "REGRESSION" : "ok"});
  }
  std::printf("%s\n", t.render().c_str());
  if (regressions > 0) {
    std::fprintf(stderr, "benchgate: %d metric(s) regressed beyond the tolerance band\n",
                 regressions);
    return 1;
  }
  std::printf("benchgate: all gated metrics within tolerance\n");
  return 0;
}

int cmd_show(int argc, char** argv) {
  if (argc != 3) return usage();
  const std::string path = argv[2];
  const std::vector<bench::ScenarioResult> scenarios = load_scenarios(path);
  if (scenarios.empty()) return 1;
  print_scenarios(("trajectory " + path + ":").c_str(), scenarios);

  // The embedded baseline, when present, and the improvement it implies.
  const auto text = read_file(path);
  const auto parsed = support::parse_json(*text);
  const auto baseline =
      bench::scenarios_from_json(std::get<support::JsonValue>(parsed), /*from_baseline=*/true);
  if (!baseline.empty()) {
    print_scenarios("embedded baseline:", baseline);
    const auto deltas = bench::compare_trajectories(baseline, scenarios);
    support::TextTable t({"Metric", "Baseline", "Current", "Improvement"});
    for (const bench::MetricDelta& d : deltas) {
      if (d.missing) continue;
      t.add_row({d.metric, support::TextTable::num(d.baseline, 2),
                 support::TextTable::num(d.current, 2), support::TextTable::pct(-d.worse_pct)});
    }
    std::printf("vs embedded baseline (positive = better):\n%s\n", t.render().c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  if (std::strcmp(argv[1], "run") == 0) return cmd_run(argc, argv);
  if (std::strcmp(argv[1], "compare") == 0) return cmd_compare(argc, argv);
  if (std::strcmp(argv[1], "show") == 0) return cmd_show(argc, argv);
  return usage();
}
