// The event-vs-legacy simulator differential guarantee
// (docs/SIMULATOR.md): the event engine behind spmt::run_spmt and the
// legacy stepper kept in tests/legacy_stepper.cpp must produce
// bit-identical SpmtStats, committed memory images, value fingerprints
// and traces on randomized workloads — through squashes, write-buffer
// overflow, the speculation-off ablation and the timing-only fast path —
// plus the determinism contract of the parallel sweep driver and the
// quick_estimate fast path.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "codegen/kernel_program.hpp"
#include "driver/sim_sweep.hpp"
#include "legacy_stepper.hpp"
#include "obs/counters.hpp"
#include "sched/tms.hpp"
#include "spmt/estimate.hpp"
#include "spmt/reference.hpp"
#include "spmt/sim.hpp"
#include "test_util.hpp"
#include "workloads/doacross.hpp"
#include "workloads/kernels.hpp"

namespace tms {
namespace {

void expect_stats_equal(const spmt::SpmtStats& a, const spmt::SpmtStats& b,
                        const std::string& what) {
  EXPECT_EQ(a.threads_committed, b.threads_committed) << what;
  EXPECT_EQ(a.instances_executed, b.instances_executed) << what;
  EXPECT_EQ(a.total_cycles, b.total_cycles) << what;
  EXPECT_EQ(a.sync_stall_cycles, b.sync_stall_cycles) << what;
  EXPECT_EQ(a.mem_stall_cycles, b.mem_stall_cycles) << what;
  EXPECT_EQ(a.send_recv_pairs, b.send_recv_pairs) << what;
  EXPECT_EQ(a.misspeculations, b.misspeculations) << what;
  EXPECT_EQ(a.squashed_cycles, b.squashed_cycles) << what;
  EXPECT_EQ(a.wb_overflow_waits, b.wb_overflow_waits) << what;
  EXPECT_EQ(a.spec_wait_cycles, b.spec_wait_cycles) << what;
  EXPECT_EQ(a.send_block_cycles, b.send_block_cycles) << what;
  EXPECT_EQ(a.bus_transfers, b.bus_transfers) << what;
  EXPECT_EQ(a.bus_cycles, b.bus_cycles) << what;
  EXPECT_EQ(a.l1_hits, b.l1_hits) << what;
  EXPECT_EQ(a.l1_misses, b.l1_misses) << what;
  EXPECT_EQ(a.l2_hits, b.l2_hits) << what;
  EXPECT_EQ(a.l2_misses, b.l2_misses) << what;
}

void expect_results_identical(const spmt::SpmtResult& ev, const spmt::SpmtResult& lg,
                              const std::string& what) {
  expect_stats_equal(ev.stats, lg.stats, what);
  EXPECT_EQ(ev.value_fingerprint, lg.value_fingerprint) << what;
  EXPECT_EQ(ev.memory, lg.memory) << what;
  ASSERT_EQ(ev.trace.size(), lg.trace.size()) << what;
  for (std::size_t i = 0; i < ev.trace.size(); ++i) {
    const spmt::ThreadTrace& a = ev.trace[i];
    const spmt::ThreadTrace& b = lg.trace[i];
    EXPECT_EQ(a.thread, b.thread) << what << " trace " << i;
    EXPECT_EQ(a.core, b.core) << what << " trace " << i;
    EXPECT_EQ(a.start, b.start) << what << " trace " << i;
    EXPECT_EQ(a.completion, b.completion) << what << " trace " << i;
    EXPECT_EQ(a.commit_end, b.commit_end) << what << " trace " << i;
    EXPECT_EQ(a.attempts, b.attempts) << what << " trace " << i;
    EXPECT_EQ(a.sync_stall, b.sync_stall) << what << " trace " << i;
    EXPECT_EQ(a.mem_stall, b.mem_stall) << what << " trace " << i;
  }
}

/// Runs both engines on the same point and checks bit identity.
void check_differential(const ir::Loop& loop, const codegen::KernelProgram& kp,
                        const machine::SpmtConfig& cfg, std::uint64_t stream_seed,
                        spmt::SpmtOptions opts, const std::string& what) {
  const spmt::AddressStreams streams = spmt::default_streams(loop, stream_seed);
  const spmt::SpmtResult ev = spmt::run_spmt(loop, kp, cfg, streams, opts);
  const spmt::SpmtResult lg = test::run_legacy_stepper(loop, kp, cfg, streams, opts);
  expect_results_identical(ev, lg, what);
}

/// The always-colliding squashy loop from oracle_test: the store sits at
/// the end of the iteration, the dependent load of the next iteration at
/// the start, so every younger thread squashes and re-executes. Other
/// distances and probabilities give the rest of the squash-heavy
/// DOACROSS family.
ir::Loop squashy_loop(int distance = 1, double probability = 1.0) {
  ir::Loop loop("squashy");
  const ir::NodeId st = loop.add_instr(ir::Opcode::kStore, "st");
  const ir::NodeId ld = loop.add_instr(ir::Opcode::kLoad, "ld");
  loop.add_mem_flow(st, ld, distance, probability);
  return loop;
}

codegen::KernelProgram squashy_kernel(const ir::Loop& loop, const machine::MachineModel& mach,
                                      const machine::SpmtConfig& cfg) {
  sched::Schedule s(loop, mach, 16);
  s.set_slot(ir::NodeId{0}, 15);  // store
  s.set_slot(ir::NodeId{1}, 0);   // load
  EXPECT_FALSE(s.validate().has_value());
  EXPECT_EQ(s.speculated_deps(cfg).size(), 1u);
  return codegen::lower_kernel(s, cfg);
}

TEST(EventSim, RandomSuiteBitIdenticalAcrossCoreCounts) {
  machine::MachineModel mach;
  for (std::uint64_t seed : {1u, 3u, 9u, 17u, 21u, 33u}) {
    const ir::Loop loop = test::random_loop(seed);
    for (int ncore : {2, 4, 8, 16, 32}) {
      machine::SpmtConfig cfg;
      cfg.ncore = ncore;
      const auto tms = sched::tms_schedule(loop, mach, cfg);
      ASSERT_TRUE(tms.has_value()) << "seed " << seed;
      const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);
      spmt::SpmtOptions opts;
      opts.iterations = 80;
      opts.collect_trace = true;
      check_differential(loop, kp, cfg, seed, opts,
                         "seed " + std::to_string(seed) + " ncore " + std::to_string(ncore));
    }
  }
}

TEST(EventSim, SquashPathBitIdentical) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = squashy_loop();
  const codegen::KernelProgram kp = squashy_kernel(loop, mach, cfg);

  spmt::SpmtOptions opts;
  opts.iterations = 200;
  opts.collect_trace = true;
  const spmt::AddressStreams streams = spmt::default_streams(loop, 7);
  const spmt::SpmtResult ev = spmt::run_spmt(loop, kp, cfg, streams, opts);
  const spmt::SpmtResult lg = test::run_legacy_stepper(loop, kp, cfg, streams, opts);
  ASSERT_GT(ev.stats.misspeculations, 0) << "squash path was not exercised";
  expect_results_identical(ev, lg, "squashy");
}

TEST(EventSim, WriteBufferOverflowBitIdentical) {
  // More stores per iteration than the speculation write buffer holds:
  // every thread head-serialises, which exercises the commit-chain wait
  // in the event machinery.
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  cfg.spec_write_buffer_entries = 1;
  ir::Loop loop("two_stores");
  const ir::NodeId ld = loop.add_instr(ir::Opcode::kLoad, "ld");
  const ir::NodeId m = loop.add_instr(ir::Opcode::kFMul, "m");
  const ir::NodeId st1 = loop.add_instr(ir::Opcode::kStore, "st1");
  const ir::NodeId st2 = loop.add_instr(ir::Opcode::kStore, "st2");
  loop.add_reg_flow(ld, m, 0);
  loop.add_reg_flow(m, st1, 0);
  loop.add_reg_flow(m, st2, 0);
  const auto tms = sched::tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);
  ASSERT_GT(kp.stores_per_iter, cfg.spec_write_buffer_entries);

  spmt::SpmtOptions opts;
  opts.iterations = 64;
  opts.collect_trace = true;
  const spmt::AddressStreams streams = spmt::default_streams(loop, 5);
  const spmt::SpmtResult ev = spmt::run_spmt(loop, kp, cfg, streams, opts);
  const spmt::SpmtResult lg = test::run_legacy_stepper(loop, kp, cfg, streams, opts);
  ASSERT_GT(ev.stats.wb_overflow_waits, 0);
  expect_results_identical(ev, lg, "wb_overflow");
}

TEST(EventSim, SpeculationDisabledBitIdentical) {
  machine::MachineModel mach;
  for (std::uint64_t seed : {9u, 21u}) {
    const ir::Loop loop = test::random_loop(seed);
    machine::SpmtConfig cfg;
    cfg.ncore = 8;
    const auto tms = sched::tms_schedule(loop, mach, cfg);
    ASSERT_TRUE(tms.has_value()) << "seed " << seed;
    const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);
    spmt::SpmtOptions opts;
    opts.iterations = 80;
    opts.disable_speculation = true;
    check_differential(loop, kp, cfg, seed, opts, "spec-off seed " + std::to_string(seed));
  }
}

TEST(EventSim, TimingOnlyModeMatchesValueModeStats) {
  // keep_memory=false routes steady-state threads through the
  // eventful-ops fast path; timing must not depend on functional values,
  // so the stats must equal both the legacy timing run and the full
  // value-tracking run.
  machine::MachineModel mach;
  for (std::uint64_t seed : {3u, 17u, 33u}) {
    const ir::Loop loop = test::random_loop(seed);
    machine::SpmtConfig cfg;
    cfg.ncore = 16;
    const auto tms = sched::tms_schedule(loop, mach, cfg);
    ASSERT_TRUE(tms.has_value()) << "seed " << seed;
    const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);
    const spmt::AddressStreams streams = spmt::default_streams(loop, seed);

    spmt::SpmtOptions timing;
    timing.iterations = 120;
    timing.keep_memory = false;
    timing.collect_trace = true;
    const spmt::SpmtResult ev = spmt::run_spmt(loop, kp, cfg, streams, timing);
    const spmt::SpmtResult lg = test::run_legacy_stepper(loop, kp, cfg, streams, timing);
    expect_results_identical(ev, lg, "timing seed " + std::to_string(seed));

    spmt::SpmtOptions values = timing;
    values.keep_memory = true;
    const spmt::SpmtResult full = spmt::run_spmt(loop, kp, cfg, streams, values);
    expect_stats_equal(ev.stats, full.stats, "timing-vs-values seed " + std::to_string(seed));
  }
}

TEST(EventSim, SquashyTimingOnlyBitIdentical) {
  // The fast path must also replay squashed attempts identically.
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = squashy_loop();
  const codegen::KernelProgram kp = squashy_kernel(loop, mach, cfg);
  spmt::SpmtOptions opts;
  opts.iterations = 200;
  opts.keep_memory = false;
  opts.collect_trace = true;
  check_differential(loop, kp, cfg, 7, opts, "squashy-timing");
}

// ---- Long runs: the folded store history ----------------------------------

/// The event engine's store-history work over one run, from the obs
/// counters: records committed and records removed by folds. Retained
/// history at the end of the run is the difference.
struct StoreHistory {
  std::uint64_t inserted = 0;
  std::uint64_t folded = 0;
  std::uint64_t retained() const { return inserted - folded; }
};

spmt::SpmtResult run_event_counted(const ir::Loop& loop, const codegen::KernelProgram& kp,
                                   const machine::SpmtConfig& cfg,
                                   const spmt::AddressStreams& streams,
                                   const spmt::SpmtOptions& opts, StoreHistory& hist) {
  const obs::CountersSnapshot before = obs::counters_snapshot();
  spmt::SpmtResult r = spmt::run_spmt(loop, kp, cfg, streams, opts);
  const obs::CountersSnapshot d = obs::snapshot_delta(before, obs::counters_snapshot());
  hist.inserted = d.value("sim.store_records");
  hist.folded = d.value("sim.store_records_folded");
  return r;
}

/// Addresses the kernel's stores write over `iterations` source
/// iterations.
std::size_t store_addresses(const codegen::KernelProgram& kp, const spmt::AddressStreams& streams,
                            std::int64_t iterations) {
  std::unordered_set<std::uint64_t> addrs;
  for (const codegen::KernelOp& op : kp.ops) {
    if (!op.is_store) continue;
    for (std::int64_t i = 0; i < iterations; ++i) addrs.insert(streams.address(op.node, i));
  }
  return addrs.size();
}

/// Both engines at 10,000 iterations, with keep_memory on and off and the
/// trace on, agree bit for bit while the event engine folds its history;
/// and the history it retains does not grow when the run is four times
/// longer. Which records an address holds at the end of a run depends on
/// where it stands in its fold cycle (a timeline folds once it reaches 16
/// records or doubles), so the check is the per-address bound, over a
/// working set that stays the same from 10k to 40k iterations. Returns
/// the squashes of the 10k run.
std::int64_t check_long_run(const ir::Loop& loop, const codegen::KernelProgram& kp,
                            const machine::SpmtConfig& cfg, std::uint64_t stream_seed,
                            const std::string& what) {
  constexpr std::uint64_t kRecordsPerAddress = 16;
  const spmt::AddressStreams streams = spmt::default_streams(loop, stream_seed);
  spmt::SpmtOptions opts;
  opts.collect_trace = true;
  opts.iterations = 10000;
  StoreHistory at_10k;
  std::int64_t squashes = 0;
  for (const bool keep_memory : {true, false}) {
    opts.keep_memory = keep_memory;
    const std::string w = what + (keep_memory ? " values" : " timing");
    const spmt::SpmtResult ev = run_event_counted(loop, kp, cfg, streams, opts, at_10k);
    const spmt::SpmtResult lg = test::run_legacy_stepper(loop, kp, cfg, streams, opts);
    expect_results_identical(ev, lg, w);
    EXPECT_GT(at_10k.folded, 0u) << w;
    squashes = ev.stats.misspeculations;
  }
  const std::size_t addrs = store_addresses(kp, streams, 10000);
  EXPECT_EQ(store_addresses(kp, streams, 40000), addrs) << what;
  EXPECT_LE(at_10k.retained(), addrs * kRecordsPerAddress) << what;

  opts.iterations = 40000;
  StoreHistory at_40k;
  (void)run_event_counted(loop, kp, cfg, streams, opts, at_40k);
  EXPECT_EQ(at_40k.inserted, 4 * at_10k.inserted) << what;
  EXPECT_LE(at_40k.retained(), addrs * kRecordsPerAddress) << what;
  return squashes;
}

TEST(EventSimLongRun, SquashHeavyDoacrossFamilyBitIdentical) {
  machine::MachineModel mach;
  const std::pair<int, double> family[] = {{1, 1.0}, {2, 1.0}, {1, 0.5}};
  for (const auto& [distance, probability] : family) {
    const ir::Loop loop = squashy_loop(distance, probability);
    for (const auto& [name, dir, cfg] : test::golden_configs()) {
      const codegen::KernelProgram kp = squashy_kernel(loop, mach, cfg);
      const std::string what = "squashy d" + std::to_string(distance) + " p" +
                               std::to_string(probability) + " " + name;
      const std::int64_t squashes = check_long_run(loop, kp, cfg, 7, what);
      // Locality blocks run neighbouring iterations in order on one
      // core, so only the ring configs must squash.
      if (cfg.policy == machine::AllocPolicy::kModulo) {
        EXPECT_GT(squashes, 0) << what << ": no squashes";
      }
    }
  }
}

/// The Table-3 schedules come from golden_sched_test's snapshots, which
/// pin them to what tms_schedule returns; scheduling them again here
/// would cost more than the simulation.
TEST(EventSimLongRun, Table3LoopsBitIdentical) {
  machine::MachineModel mach;
  std::uint64_t seed = 1;
  for (const workloads::SelectedLoop& s : workloads::doacross_selected_loops()) {
    for (const test::GoldenConfig& c : test::golden_configs()) {
      const std::string key = test::snapshot_key(c, s.loop.name());
      test::GoldenRecord g;
      std::string err;
      ASSERT_TRUE(test::read_golden(test::golden_path(TMS_SOURCE_DIR, key), key, g, err)) << err;
      ASSERT_EQ(g.slots.size(), static_cast<std::size_t>(s.loop.num_instrs())) << key;
      const sched::Schedule schedule = test::golden_schedule(s.loop, mach, g);
      ASSERT_FALSE(schedule.validate().has_value()) << key;
      const codegen::KernelProgram kp = codegen::lower_kernel(schedule, c.cfg);
      check_long_run(s.loop, kp, c.cfg, seed++, s.loop.name() + " " + c.name);
    }
  }
}

/// An intra-iteration write-after-read with no DDG edge: `ld` reads A[i]
/// and the program-order-later `st` writes A[i], both on one strided
/// stream over a `span`-byte array. The store sits in stage 0 and the
/// load in stage 1, so the store of iteration i joins the history when
/// thread i commits, before thread i+1 runs the load of iteration i, and
/// that load must still read what iteration i - span/8 stored. Those are
/// exactly the records a key horizon one iteration too far would fold
/// into the history the load reads; the default streams never give a
/// load the address a store of its own or a later iteration writes.
TEST(EventSimLongRun, WriteAfterReadAcrossStagesMatchesReference) {
  machine::MachineModel mach;
  ir::Loop loop("war");
  const ir::NodeId ld = loop.add_instr(ir::Opcode::kLoad, "ld");
  const ir::NodeId st = loop.add_instr(ir::Opcode::kStore, "st");
  constexpr std::int64_t kIterations = 4000;
  for (const std::uint64_t span : {64u, 256u}) {
    spmt::AddressStreams streams(loop.num_instrs());
    streams.set(ld, spmt::AddressStreams::strided(1u << 20, 8, span));
    streams.set(st, spmt::AddressStreams::strided(1u << 20, 8, span));
    const spmt::ReferenceResult ref = spmt::run_reference(loop, streams, kIterations);
    for (const int st_slot : {0, 3}) {
      for (const int ld_slot : {17, 20}) {
        for (const auto& [name, dir, cfg] : test::golden_configs()) {
          sched::Schedule s(loop, mach, 16);
          s.set_slot(ld, ld_slot);
          s.set_slot(st, st_slot);
          ASSERT_FALSE(s.validate().has_value());
          const codegen::KernelProgram kp = codegen::lower_kernel(s, cfg);
          ASSERT_EQ(kp.stage_count, 2);
          const std::string what = "war span " + std::to_string(span) + " st@" +
                                   std::to_string(st_slot) + " ld@" + std::to_string(ld_slot) +
                                   " " + name;
          spmt::SpmtOptions opts;
          opts.iterations = kIterations;
          StoreHistory hist;
          const spmt::SpmtResult ev = run_event_counted(loop, kp, cfg, streams, opts, hist);
          const spmt::SpmtResult lg = test::run_legacy_stepper(loop, kp, cfg, streams, opts);
          expect_results_identical(ev, lg, what);
          EXPECT_GT(hist.folded, 0u) << what;
          EXPECT_EQ(ev.value_fingerprint, ref.value_fingerprint) << what;
          EXPECT_EQ(ev.memory, ref.memory) << what;
        }
      }
    }
  }
}

// ---- Parallel sweep driver ------------------------------------------------

std::vector<driver::SimSweepPoint> build_sweep_points() {
  machine::MachineModel mach;
  std::vector<driver::SimSweepPoint> points;
  for (std::uint64_t seed : {3u, 9u, 21u}) {
    const ir::Loop loop = test::random_loop(seed);
    for (int ncore : {8, 16}) {
      machine::SpmtConfig cfg;
      cfg.ncore = ncore;
      const auto tms = sched::tms_schedule(loop, mach, cfg);
      if (!tms.has_value()) continue;
      driver::SimSweepPoint p;
      p.name = loop.name() + ".ncore" + std::to_string(ncore);
      p.loop = loop;
      p.kp = codegen::lower_kernel(tms->schedule, cfg);
      p.cfg = cfg;
      p.sim.iterations = 64;
      p.stream_seed = seed;
      points.push_back(std::move(p));
    }
  }
  return points;
}

TEST(SimSweep, DeterministicAcrossThreadCounts) {
  const std::vector<driver::SimSweepPoint> points = build_sweep_points();
  ASSERT_GE(points.size(), 4u);

  driver::SimSweepOptions seq;
  seq.threads = 1;
  driver::SimSweepOptions par;
  par.threads = 8;
  const auto a = driver::run_sim_sweep(points, seq);
  const auto b = driver::run_sim_sweep(points, par);
  ASSERT_EQ(a.size(), points.size());
  ASSERT_EQ(b.size(), points.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(a[i].ok) << a[i].name << ": " << a[i].error;
    EXPECT_EQ(a[i].name, b[i].name);
    EXPECT_EQ(a[i].ncore, b[i].ncore);
    EXPECT_EQ(a[i].ok, b[i].ok);
    EXPECT_EQ(a[i].value_fingerprint, b[i].value_fingerprint) << a[i].name;
    expect_stats_equal(a[i].stats, b[i].stats, a[i].name);
  }
}

TEST(SimSweep, MatchesDirectRuns) {
  const std::vector<driver::SimSweepPoint> points = build_sweep_points();
  driver::SimSweepOptions opts;
  opts.threads = 4;
  const auto outcomes = driver::run_sim_sweep(points, opts);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const spmt::AddressStreams streams =
        spmt::default_streams(points[i].loop, points[i].stream_seed);
    const spmt::SpmtResult direct =
        spmt::run_spmt(points[i].loop, points[i].kp, points[i].cfg, streams, points[i].sim);
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].name;
    expect_stats_equal(outcomes[i].stats, direct.stats, outcomes[i].name);
    EXPECT_EQ(outcomes[i].value_fingerprint, direct.value_fingerprint) << outcomes[i].name;
  }
}

// ---- quick_estimate -------------------------------------------------------

TEST(QuickEstimate, VerifiesScheduledKernelAtServingSize) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = test::random_loop(9);
  const auto tms = sched::tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);

  const spmt::QuickEstimate qe = spmt::quick_estimate(loop, kp, cfg);
  EXPECT_TRUE(qe.semantics_ok);
  EXPECT_EQ(qe.iterations, 32);  // max(32, 8*4) capped at 256
  EXPECT_GT(qe.cycles_per_iteration, 0.0);
  EXPECT_EQ(qe.stats.threads_committed, qe.iterations + kp.stage_count - 1);
}

TEST(QuickEstimate, MatchesFullRunAtSameIterations) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  cfg.ncore = 8;
  const ir::Loop loop = test::random_loop(21);
  const auto tms = sched::tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);

  spmt::QuickEstimateOptions qopts;
  qopts.iterations = 48;
  qopts.stream_seed = 21;
  const spmt::QuickEstimate qe = spmt::quick_estimate(loop, kp, cfg, qopts);
  EXPECT_TRUE(qe.semantics_ok);

  spmt::SpmtOptions sim;
  sim.iterations = 48;
  const spmt::AddressStreams streams = spmt::default_streams(loop, 21);
  const spmt::SpmtResult full = spmt::run_spmt(loop, kp, cfg, streams, sim);
  expect_stats_equal(qe.stats, full.stats, "quick-vs-full");
}

TEST(QuickEstimate, SquashHeavyKernelStillSemanticallyOk) {
  // Even an always-squashing schedule commits reference semantics; the
  // estimate reports the (terrible) timing honestly instead of failing.
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = squashy_loop();
  const codegen::KernelProgram kp = squashy_kernel(loop, mach, cfg);
  spmt::QuickEstimateOptions qopts;
  qopts.iterations = 64;
  const spmt::QuickEstimate qe = spmt::quick_estimate(loop, kp, cfg, qopts);
  EXPECT_TRUE(qe.semantics_ok);
  EXPECT_GT(qe.misspec_frequency, 0.0);
}

// Every allocation policy, bus on and off, both engines: the
// bit-identity contract is policy-independent. ncore 32 is included
// because that is where non-uniform policies diverge most from modulo.
TEST(EventSim, EveryPolicyBitIdenticalAcrossEngines) {
  machine::MachineModel mach;
  const machine::AllocPolicy policies[] = {
      machine::AllocPolicy::kModulo, machine::AllocPolicy::kRoundRobinStride,
      machine::AllocPolicy::kLocality, machine::AllocPolicy::kDepDistance};
  for (std::uint64_t seed : {3u, 17u}) {
    const ir::Loop loop = test::random_loop(seed);
    for (const machine::AllocPolicy pol : policies) {
      for (int ncore : {4, 32}) {
        for (int bus_bytes : {0, 8}) {
          machine::SpmtConfig cfg;
          cfg.ncore = ncore;
          cfg.policy = pol;
          cfg.policy_stride = 3;
          cfg.policy_block = 2;
          cfg.bus_bytes_per_transfer = bus_bytes;
          const auto tms = sched::tms_schedule(loop, mach, cfg);
          ASSERT_TRUE(tms.has_value()) << "seed " << seed;
          const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);
          spmt::SpmtOptions opts;
          opts.iterations = 80;
          opts.collect_trace = true;
          check_differential(loop, kp, cfg, seed, opts,
                             "seed " + std::to_string(seed) + " policy " +
                                 std::to_string(static_cast<int>(pol)) + " ncore " +
                                 std::to_string(ncore) + " bus " + std::to_string(bus_bytes));
        }
      }
    }
  }
}

// The SpMT runs oracle_test makes on its randomized inputs
// (check::run_differential_oracle: 64 iterations, stream seed 42, memory
// image and trace on), on both engines. Bit identity here plus the
// oracle passing on the event engine there holds the legacy stepper to
// the sequential reference and the oracle's conservation laws.
void check_oracle_inputs(const ir::Loop& loop, const machine::SpmtConfig& cfg,
                         const std::string& what) {
  const machine::MachineModel mach;
  const auto tms = sched::tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value()) << what;
  const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);
  spmt::SpmtOptions opts;
  opts.iterations = 64;
  opts.keep_memory = true;
  opts.collect_trace = true;
  check_differential(loop, kp, cfg, 42, opts, what);
}

// Oracle.RandomLoopsAcrossCoreCounts' inputs.
TEST(EventSim, OracleRandomLoopsBitIdentical) {
  for (std::uint64_t seed : {3u, 9u, 21u}) {
    const ir::Loop loop = test::random_loop(seed);
    for (int ncore : {2, 8}) {
      machine::SpmtConfig cfg;
      cfg.ncore = ncore;
      check_oracle_inputs(loop, cfg,
                          "seed " + std::to_string(seed) + " ncore " + std::to_string(ncore));
    }
  }
}

// Oracle.EveryPolicyHolds' inputs: every policy at ncore 8, bus on.
TEST(EventSim, OraclePolicyLoopsBitIdentical) {
  for (std::uint64_t seed : {3u, 21u}) {
    const ir::Loop loop = test::random_loop(seed);
    for (const machine::AllocPolicy pol :
         {machine::AllocPolicy::kModulo, machine::AllocPolicy::kRoundRobinStride,
          machine::AllocPolicy::kLocality, machine::AllocPolicy::kDepDistance}) {
      machine::SpmtConfig cfg;
      cfg.ncore = 8;
      cfg.policy = pol;
      cfg.policy_stride = 3;
      cfg.policy_block = 2;
      cfg.bus_bytes_per_transfer = 8;
      check_oracle_inputs(loop, cfg,
                          "seed " + std::to_string(seed) + " policy " +
                              std::to_string(static_cast<int>(pol)));
    }
  }
}

// With the bus off, the modulo policy's relay pricing d_ker*(c_reg_com+0)
// must leave every legacy stat untouched; bus_transfers is the pure
// dataflow volume and bus_cycles stays zero.
TEST(EventSim, BusOffModuloChargesNoBusCycles) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop loop = test::tiny_recurrence();
  const auto tms = sched::tms_schedule(loop, mach, cfg);
  ASSERT_TRUE(tms.has_value());
  const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);
  spmt::SpmtOptions opts;
  opts.iterations = 100;
  const spmt::SpmtResult r =
      spmt::run_spmt(loop, kp, cfg, spmt::default_streams(loop, 42), opts);
  EXPECT_GT(r.stats.bus_transfers, 0);
  EXPECT_EQ(r.stats.bus_cycles, 0);
}

// Pinned pre-policy baseline: with the default config (modulo policy, bus
// term off) both engines must reproduce the seed repo's stats and value
// fingerprints bit-exactly. These rows were captured at the commit that
// introduced the policy subsystem, from a build without it.
TEST(GoldenStats, DefaultConfigReproducesPrePolicyBaseline) {
  struct Row {
    const char* name;
    int ncore;
    std::int64_t threads_committed, instances_executed, total_cycles, sync_stall_cycles,
        mem_stall_cycles, send_recv_pairs, misspeculations, squashed_cycles, wb_overflow_waits,
        spec_wait_cycles, send_block_cycles;
    std::uint64_t l1_hits, l1_misses, l2_hits, l2_misses;
    std::uint64_t fingerprint;
  };
  const Row rows[] = {
      {"tiny_rec", 2, 401, 800, 2544, 2410, 736, 798, 0, 0, 0, 0, 0, 384u, 16u, 8u, 8u,
       0xbd6e8767d7bf4681ull},
      {"tiny_rec", 4, 400, 800, 2557, 6428, 928, 400, 0, 0, 0, 0, 0, 368u, 32u, 24u, 8u,
       0xbd6e8767d7bf4681ull},
      {"tiny_rec", 8, 400, 800, 2421, 14952, 1312, 400, 0, 0, 0, 0, 0, 336u, 64u, 56u, 8u,
       0xbd6e8767d7bf4681ull},
      {"tiny_doall", 2, 402, 1200, 2179, 1243, 736, 796, 0, 0, 0, 0, 0, 768u, 32u, 8u, 8u,
       0x429979c66180cdcbull},
      {"tiny_doall", 4, 400, 1200, 1837, 0, 928, 0, 0, 0, 0, 0, 0, 736u, 64u, 24u, 8u,
       0x429979c66180cdcbull},
      {"tiny_doall", 8, 400, 1200, 1745, 0, 1312, 0, 0, 0, 0, 0, 0, 672u, 128u, 56u, 8u,
       0x429979c66180cdcbull},
      {"hydro", 2, 405, 4000, 4223, 2669, 2208, 5530, 0, 0, 0, 0, 0, 1536u, 64u, 24u, 24u,
       0x403e8fc347c8599bull},
      {"hydro", 4, 403, 4000, 3915, 6765, 2784, 2779, 0, 0, 0, 0, 0, 1472u, 128u, 72u, 24u,
       0x403e8fc347c8599bull},
      {"hydro", 8, 400, 4000, 3450, 4178, 3936, 400, 0, 0, 0, 0, 0, 1344u, 256u, 168u, 24u,
       0x403e8fc347c8599bull},
      {"tridiag", 2, 401, 2400, 4849, 3402, 1472, 798, 0, 0, 0, 0, 0, 1152u, 48u, 16u, 16u,
       0x370821164a0feecull},
      {"tridiag", 4, 401, 2400, 4725, 12154, 1856, 798, 0, 0, 0, 0, 0, 1104u, 96u, 48u, 16u,
       0x370821164a0feecull},
      {"tridiag", 8, 401, 2400, 4491, 26616, 2624, 798, 0, 0, 0, 0, 1498, 1008u, 192u, 112u,
       16u, 0x370821164a0feecull},
      {"fir4", 2, 405, 4000, 3055, 1320, 736, 5135, 0, 0, 0, 0, 0, 768u, 32u, 8u, 8u,
       0xbef3ad3c58f4549ull},
      {"fir4", 4, 403, 4000, 2259, 2001, 928, 1985, 0, 0, 0, 0, 0, 736u, 64u, 24u, 8u,
       0xbef3ad3c58f4549ull},
      {"fir4", 8, 403, 4000, 2215, 4364, 1312, 1985, 0, 0, 0, 0, 720, 672u, 128u, 56u, 8u,
       0xbef3ad3c58f4549ull},
      {"scatter", 2, 402, 3200, 4412, 711, 2208, 1194, 0, 0, 0, 0, 0, 1536u, 64u, 24u, 24u,
       0xede1c77f8ec4e7f2ull},
      {"scatter", 4, 401, 3200, 3299, 1573, 2864, 1197, 10, 290, 0, 0, 0, 1512u, 128u, 72u,
       25u, 0xede1c77f8ec4e7f2ull},
      {"scatter", 8, 401, 3200, 3107, 5302, 3912, 1197, 11, 555, 0, 0, 997, 1388u, 256u, 168u,
       25u, 0xede1c77f8ec4e7f2ull},
      {"prop_9001", 2, 403, 11600, 6803, 2181, 2944, 5161, 0, 0, 0, 0, 0, 2304u, 96u, 32u,
       32u, 0x273d1f805c2e9768ull},
      {"prop_9001", 4, 403, 11600, 5368, 8029, 3712, 3176, 0, 0, 0, 0, 0, 2208u, 192u, 96u,
       32u, 0x273d1f805c2e9768ull},
      {"prop_9001", 8, 400, 11600, 5158, 10520, 5248, 800, 0, 0, 0, 0, 0, 2016u, 384u, 224u,
       32u, 0x273d1f805c2e9768ull},
  };

  auto loop_by_name = [](const std::string& name) -> ir::Loop {
    if (name == "tiny_rec") return test::tiny_recurrence();
    if (name == "tiny_doall") return test::tiny_doall();
    if (name == "prop_9001") return test::random_loop(9001);
    for (workloads::Kernel& k : workloads::classic_kernels()) {
      if (k.loop.name() == name) return std::move(k.loop);
    }
    ADD_FAILURE() << "no workload named " << name;
    return ir::Loop("missing");
  };

  const std::pair<const char*, decltype(&spmt::run_spmt)> engines[] = {
      {"event", spmt::run_spmt}, {"legacy", test::run_legacy_stepper}};
  machine::MachineModel mach;
  for (const Row& row : rows) {
    const ir::Loop loop = loop_by_name(row.name);
    machine::SpmtConfig cfg;
    cfg.ncore = row.ncore;
    const auto tms = sched::tms_schedule(loop, mach, cfg);
    ASSERT_TRUE(tms.has_value()) << row.name;
    const codegen::KernelProgram kp = codegen::lower_kernel(tms->schedule, cfg);
    const spmt::AddressStreams streams = spmt::default_streams(loop, 42);
    spmt::SpmtOptions opts;
    opts.iterations = 400;
    for (const auto& [engine, run] : engines) {
      const spmt::SpmtResult r = run(loop, kp, cfg, streams, opts);
      const std::string what =
          std::string(row.name) + " ncore " + std::to_string(row.ncore) + " " + engine;
      EXPECT_EQ(r.stats.threads_committed, row.threads_committed) << what;
      EXPECT_EQ(r.stats.instances_executed, row.instances_executed) << what;
      EXPECT_EQ(r.stats.total_cycles, row.total_cycles) << what;
      EXPECT_EQ(r.stats.sync_stall_cycles, row.sync_stall_cycles) << what;
      EXPECT_EQ(r.stats.mem_stall_cycles, row.mem_stall_cycles) << what;
      EXPECT_EQ(r.stats.send_recv_pairs, row.send_recv_pairs) << what;
      EXPECT_EQ(r.stats.misspeculations, row.misspeculations) << what;
      EXPECT_EQ(r.stats.squashed_cycles, row.squashed_cycles) << what;
      EXPECT_EQ(r.stats.wb_overflow_waits, row.wb_overflow_waits) << what;
      EXPECT_EQ(r.stats.spec_wait_cycles, row.spec_wait_cycles) << what;
      EXPECT_EQ(r.stats.send_block_cycles, row.send_block_cycles) << what;
      EXPECT_EQ(r.stats.l1_hits, row.l1_hits) << what;
      EXPECT_EQ(r.stats.l1_misses, row.l1_misses) << what;
      EXPECT_EQ(r.stats.l2_hits, row.l2_hits) << what;
      EXPECT_EQ(r.stats.l2_misses, row.l2_misses) << what;
      EXPECT_EQ(r.value_fingerprint, row.fingerprint) << what;
      EXPECT_EQ(r.stats.bus_cycles, 0) << what;  // bus off by default
    }
  }
}

}  // namespace
}  // namespace tms
