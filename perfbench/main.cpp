// tmsperf: one benchmark workload per process.
//
//   tmsperf --workload compile_suite|serve_mix|simulate_doacross
//           --seed N --seconds S --trace 0|1 [--small] [--work-dir DIR]
//
// Prints a table of every metric by name and unit, then, as the last line
// of standard output, one JSON object:
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {value, unit}}}
// With --trace 0 the metrics are the end-to-end ones, measured untraced;
// with --trace 1 they are the per-layer ones from a traced run, which also
// writes a Chrome trace to <work-dir>/trace-<workload>-<seed>.json. The
// process runs inside --work-dir, which also holds serve_mix's sockets.
// Exit status: 0 when every output check passed, 1 when one failed, 2 on
// a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.hpp"

namespace {

using tmsperf::Metric;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload compile_suite|serve_mix|simulate_doacross --seed N "
               "--seconds S --trace 0|1 [--small] [--work-dir DIR]\n",
               argv0);
  return 2;
}

void print_rows(const char* section, const std::vector<Metric>& rows) {
  std::printf("[%s]\n", section);
  for (const Metric& m : rows) {
    std::printf("  %-40s %18.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

void print_json_metrics(const std::vector<Metric>& rows) {
  std::printf("{");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                rows[i].name.c_str(), rows[i].value, rows[i].unit.c_str());
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  tmsperf::Options opts;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (a == "--small") {
      opts.small = true;
      continue;
    }
    if ((v = next()) == nullptr) return usage(argv[0]);
    if (a == "--workload") {
      opts.workload = v;
    } else if (a == "--seed") {
      opts.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opts.seconds = std::atof(v);
      have_seconds = opts.seconds > 0.0;
    } else if (a == "--trace") {
      opts.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--work-dir") {
      opts.work_dir = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.workload.empty() || !have_seconds) return usage(argv[0]);
  std::error_code ec;
  std::filesystem::create_directories(opts.work_dir, ec);
  std::filesystem::current_path(opts.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "tmsperf: work dir %s: %s\n", opts.work_dir.c_str(), ec.message().c_str());
    return 1;
  }

  const double host_ref_start = tmsperf::host_ref_ms();
  tmsperf::Report r;
  try {
    if (opts.workload == "compile_suite") {
      r = tmsperf::run_compile_suite(opts);
    } else if (opts.workload == "serve_mix") {
      r = tmsperf::run_serve_mix(opts);
    } else if (opts.workload == "simulate_doacross") {
      r = tmsperf::run_simulate_doacross(opts);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "tmsperf: %s: %s\n", opts.workload.c_str(), ex.what());
    return 1;
  }
  // Peak RSS is read before the closing host reference, whose buffers
  // are not part of the workload.
  const double peak_rss = tmsperf::peak_rss_mb();
  const double host_ref_end = tmsperf::host_ref_ms();
  if (r.attempted < 1) {
    std::fprintf(stderr, "tmsperf: %s attempted no work\n", opts.workload.c_str());
    return 1;
  }

  const double fail_ratio = static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  r.det("fail_ratio", fail_ratio, "failed/attempted");
  r.det("peak_rss_mb", peak_rss, "MiB");
  r.det("bench.host_ref_ms.start", host_ref_start, "ms");
  r.det("bench.host_ref_ms.end", host_ref_end, "ms");
  if (opts.trace) {
    r.layer("bench.host_ref_ms", (host_ref_start + host_ref_end) / 2.0, "ms");
  } else {
    r.e2e("peak_rss_mb", peak_rss, "MiB");
  }

  std::printf("# tmsperf %s seed=%llu seconds=%g trace=%d%s\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds, opts.trace ? 1 : 0,
              opts.small ? " small" : "");
  print_rows(opts.trace ? "per_layer" : "end_to_end", opts.trace ? r.layers : r.end_to_end);
  print_rows("workload", r.detail);
  print_rows("work", r.work);
  for (const std::string& e : r.errors) std::printf("FAILED %s\n", e.c_str());
  std::printf("WORK ");
  print_json_metrics(r.work);
  std::printf("\n");

  const bool correct = r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": ",
              correct ? "true" : "false", static_cast<long long>(r.attempted),
              static_cast<long long>(r.failed));
  print_json_metrics(opts.trace ? r.layers : r.end_to_end);
  std::printf("}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
