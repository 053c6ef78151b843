// Shared helpers for the test suite: small hand-built loops and random
// loop families (via the workload builder) for property tests.
#pragma once

#include <fstream>
#include <string>
#include <vector>

#include "ir/loop.hpp"
#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"
#include "sched/schedule.hpp"
#include "workloads/builder.hpp"

namespace tms::test {

/// A two-node chain: load -> fadd, no recurrences.
inline ir::Loop tiny_chain() {
  ir::Loop loop("tiny_chain");
  const ir::NodeId a = loop.add_instr(ir::Opcode::kLoad, "a");
  const ir::NodeId b = loop.add_instr(ir::Opcode::kFAdd, "b");
  loop.add_reg_flow(a, b, 0);
  return loop;
}

/// A simple accumulator recurrence: acc = acc + load.
inline ir::Loop tiny_recurrence() {
  ir::Loop loop("tiny_rec");
  const ir::NodeId ld = loop.add_instr(ir::Opcode::kLoad, "ld");
  const ir::NodeId acc = loop.add_instr(ir::Opcode::kFAdd, "acc");
  loop.add_reg_flow(ld, acc, 0);
  loop.add_reg_flow(acc, acc, 1);
  return loop;
}

/// DOALL-style loop: independent load->compute->store, no cross-iteration
/// register dependences at all.
inline ir::Loop tiny_doall() {
  ir::Loop loop("tiny_doall");
  const ir::NodeId ld = loop.add_instr(ir::Opcode::kLoad, "ld");
  const ir::NodeId m = loop.add_instr(ir::Opcode::kFMul, "m");
  const ir::NodeId st = loop.add_instr(ir::Opcode::kStore, "st");
  loop.add_reg_flow(ld, m, 0);
  loop.add_reg_flow(m, st, 0);
  return loop;
}

/// A deterministic family of random loop shapes for property sweeps.
inline workloads::LoopShape random_shape(std::uint64_t seed) {
  support::Rng rng(seed);
  workloads::LoopShape s;
  s.name = "prop_" + std::to_string(seed);
  s.target_instrs = rng.uniform_int(6, 48);
  s.rec_circuit_delay = rng.chance(0.5) ? rng.uniform_int(4, 14) : 0;
  s.rec_circuit_len = rng.uniform_int(2, 5);
  s.accumulators = rng.uniform_int(0, 3);
  s.feeders = rng.uniform_int(0, 3);
  s.mem_deps = rng.uniform_int(0, 3);
  s.mem_prob_lo = 0.01;
  s.mem_prob_hi = 0.3;
  s.fp_fraction = rng.uniform(0.2, 0.9);
  s.seed = rng.fork_seed();
  return s;
}

inline ir::Loop random_loop(std::uint64_t seed) {
  return workloads::build_loop(random_shape(seed));
}

// ---- Golden-schedule snapshots (tests/data/golden_sched/) ----------------
//
// golden_sched_test freezes TMS's outcome on its pinned workloads under
// three machines; other tests rebuild those schedules from the snapshots
// instead of scheduling again.

/// One machine the snapshots are frozen under. `dir` is the snapshot
/// subdirectory; the empty one is the top level.
struct GoldenConfig {
  std::string name;
  std::string dir;
  machine::SpmtConfig cfg;
};

/// The paper's Table 1 machine (ncore 4, modulo), the same ring at
/// ncore 32, and ncore-32 locality blocks of 4 with the shared bus at 8
/// bytes per transfer — simulate_doacross's three configs.
inline std::vector<GoldenConfig> golden_configs() {
  const machine::SpmtConfig table1;
  machine::SpmtConfig c32 = table1;
  c32.ncore = 32;
  machine::SpmtConfig loc = c32;
  loc.policy = machine::AllocPolicy::kLocality;
  loc.policy_block = 4;
  loc.bus_bytes_per_transfer = 8;
  return {{"ncore4_modulo", "", table1},
          {"ncore32_modulo", "ncore32_modulo", c32},
          {"ncore32_locality", "ncore32_locality_bus8", loc}};
}

/// Snapshot key of a workload under a config: its path below the
/// snapshot directory without the extension, and the name in its header.
inline std::string snapshot_key(const GoldenConfig& c, const std::string& name) {
  return c.dir.empty() ? name : c.dir + "/" + name;
}

inline std::string golden_path(const std::string& source_dir, const std::string& key) {
  return source_dir + "/tests/data/golden_sched/" + key + ".txt";
}

/// The frozen outcome of one workload.
struct GoldenRecord {
  int ii = 0;
  int mii = 0;
  int c_delay = 0;
  double p_max = 0.0;
  std::vector<int> slots;  ///< indexed by node id
};

/// Reads the snapshot at `path`, whose header must name `key`.
inline bool read_golden(const std::string& path, const std::string& key, GoldenRecord& g,
                        std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "missing snapshot " + path + " (run golden_sched_test --update)";
    return false;
  }
  std::string line;
  std::getline(in, line);
  if (line != "golden-sched-v1 " + key) {
    err = path + ": bad header '" + line + "'";
    return false;
  }
  std::string field;
  while (in >> field) {
    if (field == "ii") {
      in >> g.ii;
    } else if (field == "mii") {
      in >> g.mii;
    } else if (field == "c_delay") {
      in >> g.c_delay;
    } else if (field == "p_max") {
      in >> g.p_max;
    } else if (field == "node") {
      std::size_t v = 0;
      int slot = 0;
      in >> v >> slot;
      if (v != g.slots.size()) {
        err = path + ": node ids out of order";
        return false;
      }
      g.slots.push_back(slot);
    } else {
      err = path + ": unknown key '" + field + "'";
      return false;
    }
  }
  return true;
}

/// The complete schedule a snapshot froze, over `loop`, which must have
/// exactly as many instructions as the snapshot has nodes.
inline sched::Schedule golden_schedule(const ir::Loop& loop, const machine::MachineModel& mach,
                                       const GoldenRecord& g) {
  sched::Schedule s(loop, mach, g.ii);
  for (std::size_t v = 0; v < g.slots.size(); ++v) {
    s.set_slot(static_cast<ir::NodeId>(v), g.slots[v]);
  }
  return s;
}

}  // namespace tms::test
