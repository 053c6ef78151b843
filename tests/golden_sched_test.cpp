// Golden-schedule snapshots: the equivalence layer's anchor.
//
// Ten pinned workloads (hand-built loops, classic kernels, two fuzz
// seeds) are TMS-scheduled under three SpMT configs, and the complete
// outcome — II, MII, the acceptance thresholds, and every node's slot —
// is frozen in tests/data/golden_sched/. The paper's Table 1 machine
// (ncore 4, modulo) keeps its snapshots at the top level; ncore 32 with
// the modulo policy, and ncore 32 with locality (block 4) and the shared
// bus at 8 bytes per transfer, live in subdirectories. The ncore-32
// configs are where the II sweep runs longest and its recurrence-floor
// cutoff fires. The scheduler is deterministic (no RNG anywhere in the
// sched path), so these files are machine-independent.
//
// A hot-path change that alters any schedule fails here and must
// regenerate the snapshots *consciously*:
//
//     ./tests/golden_sched_test --update
//
// which rewrites the files in the source tree (the build embeds
// TMS_SOURCE_DIR) so the diff lands in review. Regeneration still
// enforces the safety floor: every new schedule must pass the
// independent validator and the differential oracle, and its II may
// never exceed the committed one (getting slower than the snapshot is
// an error even when you asked for an update).
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "check/validate.hpp"
#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"
#include "sched/tms.hpp"
#include "test_util.hpp"
#include "workloads/kernels.hpp"

namespace tms {
namespace {

std::string golden_dir() { return std::string(TMS_SOURCE_DIR) + "/tests/data/golden_sched"; }

struct GoldenWorkload {
  std::string name;
  ir::Loop loop;
};

/// The pinned set. Order and membership are part of the contract:
/// adding a workload means committing its snapshot.
std::vector<GoldenWorkload> golden_workloads() {
  std::vector<GoldenWorkload> out;
  out.push_back({"tiny_rec", test::tiny_recurrence()});
  out.push_back({"tiny_doall", test::tiny_doall()});
  for (workloads::Kernel& k : workloads::classic_kernels()) {
    const std::string& n = k.loop.name();
    if (n == "hydro" || n == "tridiag" || n == "first_sum" || n == "fir4" || n == "scatter" ||
        n == "adi_sweep") {
      out.push_back({n, std::move(k.loop)});
    }
  }
  out.push_back({"prop_9001", test::random_loop(9001)});
  out.push_back({"prop_9002", test::random_loop(9002)});
  return out;
}

/// One machine the snapshots are frozen under. `dir` is the snapshot
/// subdirectory; the empty one is the top level.
struct GoldenConfig {
  std::string dir;
  machine::SpmtConfig cfg;
};

std::vector<GoldenConfig> golden_configs() {
  const machine::SpmtConfig table1;
  machine::SpmtConfig c32 = table1;
  c32.ncore = 32;
  machine::SpmtConfig loc = c32;
  loc.policy = machine::AllocPolicy::kLocality;
  loc.policy_block = 4;
  loc.bus_bytes_per_transfer = 8;
  return {{"", table1}, {"ncore32_modulo", c32}, {"ncore32_locality_bus8", loc}};
}

/// Snapshot key of a workload under a config: its path below
/// golden_dir() without the extension, and the name in its header.
std::string snapshot_key(const GoldenConfig& c, const std::string& name) {
  return c.dir.empty() ? name : c.dir + "/" + name;
}

/// The frozen outcome of one workload.
struct GoldenRecord {
  int ii = 0;
  int mii = 0;
  int c_delay = 0;
  double p_max = 0.0;
  std::vector<int> slots;  ///< indexed by node id
};

GoldenRecord record_of(const sched::TmsResult& r) {
  GoldenRecord g;
  g.ii = r.schedule.ii();
  g.mii = r.mii;
  g.c_delay = r.c_delay_threshold;
  g.p_max = r.p_max;
  const int n = r.schedule.loop().num_instrs();
  g.slots.reserve(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) g.slots.push_back(r.schedule.slot(v));
  return g;
}

std::string serialise(const std::string& name, const GoldenRecord& g) {
  std::ostringstream out;
  out << "golden-sched-v1 " << name << "\n";
  out << "ii " << g.ii << "\n";
  out << "mii " << g.mii << "\n";
  out << "c_delay " << g.c_delay << "\n";
  out << "p_max " << g.p_max << "\n";
  for (std::size_t v = 0; v < g.slots.size(); ++v) {
    out << "node " << v << " " << g.slots[v] << "\n";
  }
  return out.str();
}

bool load(const std::string& name, GoldenRecord& g, std::string& err) {
  const std::string path = golden_dir() + "/" + name + ".txt";
  std::ifstream in(path);
  if (!in) {
    err = "missing snapshot " + path + " (run golden_sched_test --update)";
    return false;
  }
  std::string line;
  std::getline(in, line);
  if (line != "golden-sched-v1 " + name) {
    err = path + ": bad header '" + line + "'";
    return false;
  }
  std::string key;
  while (in >> key) {
    if (key == "ii") {
      in >> g.ii;
    } else if (key == "mii") {
      in >> g.mii;
    } else if (key == "c_delay") {
      in >> g.c_delay;
    } else if (key == "p_max") {
      in >> g.p_max;
    } else if (key == "node") {
      std::size_t v = 0;
      int slot = 0;
      in >> v >> slot;
      if (v != g.slots.size()) {
        err = path + ": node ids out of order";
        return false;
      }
      g.slots.push_back(slot);
    } else {
      err = path + ": unknown key '" + key + "'";
      return false;
    }
  }
  return true;
}

/// The safety floor applied on every path (test and --update): the
/// schedule must satisfy the independent validator under its own
/// acceptance thresholds and agree with the reference interpreter.
testing::AssertionResult passes_checks(const GoldenWorkload& w, const sched::TmsResult& r,
                                       const machine::SpmtConfig& cfg) {
  check::CheckOptions copts;
  copts.c_delay_threshold = r.c_delay_threshold;
  copts.p_max = r.p_max;
  const check::CheckReport report = check::validate_schedule(r.schedule, cfg, copts);
  if (!report.ok()) {
    return testing::AssertionFailure() << w.name << ": validator: " << report.to_string();
  }
  check::OracleOptions oopts;
  oopts.iterations = 96;
  const check::OracleReport oracle = check::run_differential_oracle(w.loop, r.schedule, cfg, oopts);
  if (!oracle.ok()) {
    return testing::AssertionFailure() << w.name << ": oracle: " << oracle.to_string();
  }
  return testing::AssertionSuccess();
}

/// Schedules every workload under `c` and compares it with its snapshot.
void expect_matches_snapshots(const GoldenConfig& c) {
  const machine::MachineModel mach;
  for (const GoldenWorkload& w : golden_workloads()) {
    const std::string key = snapshot_key(c, w.name);
    SCOPED_TRACE(key);
    const auto r = sched::tms_schedule(w.loop, mach, c.cfg);
    ASSERT_TRUE(r.has_value()) << key << ": TMS failed";

    GoldenRecord want;
    std::string err;
    ASSERT_TRUE(load(key, want, err)) << err;

    const GoldenRecord got = record_of(*r);
    // II regression is called out separately: it is the one diff that is
    // never acceptable, even via --update.
    EXPECT_LE(got.ii, want.ii) << key << ": II regressed";
    EXPECT_EQ(got.ii, want.ii);
    EXPECT_EQ(got.mii, want.mii);
    EXPECT_EQ(got.c_delay, want.c_delay);
    EXPECT_EQ(got.p_max, want.p_max);
    ASSERT_EQ(got.slots.size(), want.slots.size());
    for (std::size_t v = 0; v < want.slots.size(); ++v) {
      EXPECT_EQ(got.slots[v], want.slots[v]) << key << ": node " << v << " moved";
    }

    EXPECT_TRUE(passes_checks(w, *r, c.cfg));
  }
}

TEST(GoldenSchedTest, SchedulesMatchSnapshots) { expect_matches_snapshots(golden_configs()[0]); }

TEST(GoldenSchedTest, Ncore32ModuloMatchesSnapshots) {
  expect_matches_snapshots(golden_configs()[1]);
}

TEST(GoldenSchedTest, Ncore32LocalityBusMatchesSnapshots) {
  expect_matches_snapshots(golden_configs()[2]);
}

int update_snapshots() {
  const machine::MachineModel mach;
  for (const GoldenConfig& c : golden_configs()) {
    std::filesystem::create_directories(golden_dir() + "/" + c.dir);
    for (const GoldenWorkload& w : golden_workloads()) {
      const std::string key = snapshot_key(c, w.name);
      const auto r = sched::tms_schedule(w.loop, mach, c.cfg);
      if (!r.has_value()) {
        std::fprintf(stderr, "update: TMS failed on %s\n", key.c_str());
        return 1;
      }
      const auto ok = passes_checks(w, *r, c.cfg);
      if (!ok) {
        std::fprintf(stderr, "update: %s: %s\n", key.c_str(), ok.message());
        return 1;
      }
      // The II floor survives updates: compare against the existing
      // snapshot when there is one.
      GoldenRecord prev;
      std::string err;
      if (load(key, prev, err) && r->schedule.ii() > prev.ii) {
        std::fprintf(stderr, "update: %s II regressed %d -> %d; refusing to freeze\n",
                     key.c_str(), prev.ii, r->schedule.ii());
        return 1;
      }
      const std::string path = golden_dir() + "/" + key + ".txt";
      std::ofstream out(path);
      if (!out || !(out << serialise(key, record_of(*r)))) {
        std::fprintf(stderr, "update: cannot write %s\n", path.c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
    }
  }
  return 0;
}

}  // namespace
}  // namespace tms

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--update") == 0) return tms::update_snapshots();
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
