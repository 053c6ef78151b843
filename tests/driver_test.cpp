// Unit tests for the batch-compilation driver: the work-stealing JobPool
// (every job exactly once, under contention, across thread counts), the
// content-addressed ScheduleCache (key sensitivity, LRU eviction, disk
// round-trips, corruption rejection), and the batch pipeline's
// determinism and failure-isolation contracts.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <numeric>
#include <thread>
#include <vector>

#include "driver/batch.hpp"
#include "driver/compile.hpp"
#include "driver/job_pool.hpp"
#include "driver/schedule_cache.hpp"
#include "obs/trace.hpp"
#include "test_util.hpp"
#include "workloads/kernels.hpp"

namespace tms {
namespace {

namespace fs = std::filesystem;

/// Fresh scratch directory under the test binary's cwd.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : path_("driver_test_scratch_" + tag) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------- JobPool

TEST(JobPool, RunsEveryJobExactlyOnceAcrossThreadCounts) {
  constexpr std::size_t kJobs = 500;
  for (const int threads : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> ran(kJobs);
    driver::JobPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    pool.run(kJobs, [&](std::size_t i) { ran[i].fetch_add(1); });
    for (std::size_t i = 0; i < kJobs; ++i) {
      ASSERT_EQ(ran[i].load(), 1) << "job " << i << " with " << threads << " thread(s)";
    }
  }
}

TEST(JobPool, ZeroJobsIsANoOp) {
  driver::JobPool pool(4);
  pool.run(0, [](std::size_t) { FAIL() << "body must not run"; });
}

TEST(JobPool, DefaultThreadsIsPositive) {
  EXPECT_GE(driver::JobPool::default_threads(), 1);
  EXPECT_EQ(driver::JobPool(0).threads(), driver::JobPool::default_threads());
  EXPECT_EQ(driver::JobPool(-3).threads(), driver::JobPool::default_threads());
}

// Owner popping while several thieves steal from the same deque: the jobs
// must partition exactly — nothing lost, nothing duplicated. This is the
// race-heavy path TSan exercises.
TEST(JobPool, StealDequePartitionsJobsUnderContention) {
  constexpr std::size_t kJobs = 20000;
  constexpr int kThieves = 3;
  driver::StealDeque dq(kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) dq.seed(i);

  std::vector<std::vector<std::size_t>> taken(1 + kThieves);
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // owner
    std::size_t job;
    while (dq.pop(job)) taken[0].push_back(job);
  });
  for (int t = 0; t < kThieves; ++t) {
    threads.emplace_back([&, t] {
      std::size_t job;
      while (true) {
        const driver::StealDeque::Steal s = dq.steal(job);
        if (s == driver::StealDeque::Steal::kStole) {
          taken[static_cast<std::size_t>(1 + t)].push_back(job);
        } else if (s == driver::StealDeque::Steal::kEmpty) {
          break;
        }
        // kLost: retry
      }
    });
  }
  for (std::thread& th : threads) th.join();

  std::vector<std::size_t> all;
  for (const auto& v : taken) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), kJobs);
  for (std::size_t i = 0; i < kJobs; ++i) ASSERT_EQ(all[i], i);
}

TEST(JobPool, ExceptionDoesNotStopOtherJobs) {
  constexpr std::size_t kJobs = 64;
  std::vector<std::atomic<int>> ran(kJobs);
  driver::JobPool pool(4);
  EXPECT_THROW(
      pool.run(kJobs,
               [&](std::size_t i) {
                 ran[i].fetch_add(1);
                 if (i == 13) throw std::runtime_error("job 13 exploded");
               }),
      std::runtime_error);
  for (std::size_t i = 0; i < kJobs; ++i) {
    EXPECT_EQ(ran[i].load(), 1) << "job " << i;
  }
}

// ----------------------------------------------------------- ScheduleCache

driver::ScheduleCache::Entry make_entry(int ii, int nslots) {
  driver::ScheduleCache::Entry e;
  e.scheduler = "tms";
  e.ii = ii;
  e.mii = ii;
  e.c_delay_threshold = 5;
  e.p_max = 0.25;
  for (int i = 0; i < nslots; ++i) e.slots.push_back(i);
  return e;
}

TEST(ScheduleCache, KeyChangesWithEveryInput) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  const ir::Loop a = test::tiny_chain();
  const ir::Loop b = test::tiny_recurrence();

  const std::uint64_t base = driver::ScheduleCache::key(a, mach, cfg, "tms");
  EXPECT_EQ(driver::ScheduleCache::key(a, mach, cfg, "tms"), base) << "key must be stable";

  EXPECT_NE(driver::ScheduleCache::key(a, mach, cfg, "sms"), base) << "scheduler kind";
  EXPECT_NE(driver::ScheduleCache::key(b, mach, cfg, "tms"), base) << "loop content";

  machine::SpmtConfig cfg2 = cfg;
  cfg2.ncore = cfg.ncore + 4;
  EXPECT_NE(driver::ScheduleCache::key(a, mach, cfg2, "tms"), base) << "SpmtConfig";

  machine::MachineModel mach2;
  mach2.set_issue_width(mach.issue_width() + 2);
  EXPECT_NE(driver::ScheduleCache::key(a, mach2, cfg, "tms"), base) << "issue width";

  machine::MachineModel mach3;
  machine::OpTiming t = mach3.timing(ir::Opcode::kFMul);
  t.latency += 1;
  mach3.set_timing(ir::Opcode::kFMul, t);
  EXPECT_NE(driver::ScheduleCache::key(a, mach3, cfg, "tms"), base) << "opcode timing";
}

TEST(ScheduleCache, HitMissAndSlotCountGuard) {
  driver::ScheduleCache cache(64);
  const driver::ScheduleCache::Entry e = make_entry(7, 4);

  EXPECT_FALSE(cache.lookup(1, 4).has_value());
  cache.insert(1, e);
  const auto hit = cache.lookup(1, 4);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->ii, 7);
  EXPECT_EQ(hit->slots, e.slots);

  // A key collision between loops of different sizes must read as a miss.
  EXPECT_FALSE(cache.lookup(1, 5).has_value());

  const driver::ScheduleCache::Stats s = cache.stats();
  EXPECT_EQ(s.memory_hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.inserts, 1u);
}

TEST(ScheduleCache, EvictsLeastRecentlyUsed) {
  // capacity 16 over 16 shards = 1 entry per shard; keys 16 and 32 land
  // in the same shard, so the second insert evicts the first.
  driver::ScheduleCache cache(16);
  cache.insert(16, make_entry(3, 2));
  cache.insert(32, make_entry(4, 2));
  EXPECT_FALSE(cache.lookup(16, 2).has_value());
  ASSERT_TRUE(cache.lookup(32, 2).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(ScheduleCache, DiskRoundTrip) {
  ScratchDir dir("disk");
  const driver::ScheduleCache::Entry e = make_entry(9, 3);
  {
    driver::ScheduleCache writer(64, dir.path());
    writer.insert(42, e);
  }
  driver::ScheduleCache reader(64, dir.path());
  const auto hit = reader.lookup(42, 3);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->scheduler, "tms");
  EXPECT_EQ(hit->ii, 9);
  EXPECT_EQ(hit->mii, 9);
  EXPECT_EQ(hit->c_delay_threshold, 5);
  EXPECT_DOUBLE_EQ(hit->p_max, 0.25);
  EXPECT_EQ(hit->slots, e.slots);
  EXPECT_EQ(reader.stats().disk_hits, 1u);
  // Now resident in memory: a second lookup must not touch the disk.
  ASSERT_TRUE(reader.lookup(42, 3).has_value());
  EXPECT_EQ(reader.stats().memory_hits, 1u);
}

std::string hex_key(std::uint64_t key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(key));
  return buf;
}

std::string cache_file(const std::string& dir, std::uint64_t key) {
  return dir + "/" + hex_key(key) + ".tmscache";
}

/// A well-formed entry file for `key` except for its slots line, which
/// names `count` slots and lists one.
void write_entry_with_slot_count(const std::string& dir, std::uint64_t key,
                                 const std::string& count) {
  std::ofstream out(cache_file(dir, key));
  out << "tmscache v1\nkey " << hex_key(key)
      << "\nscheduler tms\nii 4\nmii 4\nc_delay_threshold 1\np_max 0.5\nslots " << count
      << " 0\nend\n";
}

std::string read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

// The on-disk bytes, pinned: files written by one build are read by the
// next, so a reordered or reformatted line is a compatibility break.
TEST(ScheduleCache, DiskEntryFileIsPinned) {
  ScratchDir dir("pinned");
  driver::ScheduleCache::Entry tms_entry = make_entry(9, 3);
  tms_entry.p_max = 0.1;
  driver::ScheduleCache::Entry sms_entry;
  sms_entry.scheduler = "sms";
  sms_entry.ii = 12;
  sms_entry.mii = 11;
  sms_entry.slots = {0, 3, 12, 27};
  {
    driver::ScheduleCache writer(64, dir.path());
    writer.insert(42, tms_entry);
    writer.insert(0xfedcba9876543210ULL, sms_entry);
  }
  EXPECT_EQ(read_text(cache_file(dir.path(), 42)),
            "tmscache v1\n"
            "key 000000000000002a\n"
            "scheduler tms\n"
            "ii 9\n"
            "mii 9\n"
            "c_delay_threshold 5\n"
            "p_max 0.10000000000000001\n"
            "slots 3 0 1 2\n"
            "end\n");
  EXPECT_EQ(read_text(cache_file(dir.path(), 0xfedcba9876543210ULL)),
            "tmscache v1\nkey fedcba9876543210\nscheduler sms\nii 12\nmii 11\n"
            "c_delay_threshold -1\np_max -1\nslots 4 0 3 12 27\nend\n");
}

TEST(ScheduleCache, CorruptDiskEntriesAreRejected) {
  ScratchDir dir("corrupt");
  {
    std::ofstream out(cache_file(dir.path(), 7));
    out << "not a cache file at all\n";
  }
  {
    // Truncated: well-formed prefix, no slots, no end marker.
    std::ofstream out(cache_file(dir.path(), 8));
    out << "tmscache v1\nkey 0000000000000008\nscheduler tms\nii 4\n";
  }
  // Slot counts that disagree with the loop: -1 (which an istream reads
  // as SIZE_MAX), SIZE_MAX itself, and one that fits in memory but would
  // cost 800 MB, each refused before a slot is allocated; and a
  // well-formed list one slot short of the loop.
  const std::vector<std::string> counts = {"-1", "18446744073709551615", "200000000", "1"};
  for (std::size_t i = 0; i < counts.size(); ++i) {
    write_entry_with_slot_count(dir.path(), 9 + i, counts[i]);
  }
  driver::ScheduleCache cache(64, dir.path());
  EXPECT_FALSE(cache.lookup(7, 2).has_value());
  EXPECT_FALSE(cache.lookup(8, 2).has_value());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    EXPECT_FALSE(cache.lookup(9 + i, 2).has_value()) << "slots " << counts[i];
  }
  EXPECT_EQ(cache.stats().disk_rejects, 2u + counts.size());
  EXPECT_EQ(cache.stats().misses, 2u + counts.size());
}

// The read buffer is sized from the file, not from the caller's
// instruction count, which a PEEK query carries off the wire: a lookup
// naming INT_MAX instructions reads the small file and rejects it.
TEST(ScheduleCache, HugeInstructionCountAllocatesNothing) {
  ScratchDir dir("hugecount");
  {
    driver::ScheduleCache writer(64, dir.path());
    writer.insert(5, make_entry(4, 3));
  }
  driver::ScheduleCache cache(64, dir.path());
  EXPECT_FALSE(cache.lookup(5, std::numeric_limits<int>::max()).has_value());
  EXPECT_EQ(cache.stats().disk_rejects, 1u);
  EXPECT_TRUE(cache.lookup(5, 3).has_value());
  EXPECT_EQ(cache.stats().disk_hits, 1u);
}

// No file longer than the loop could use (4 KiB plus 12 bytes a slot)
// is read. What follows `end` is never parsed, so padding after it
// tells the two sides of the bound apart by length alone.
TEST(ScheduleCache, FileLongerThanTheLoopCouldUseIsRejected) {
  ScratchDir dir("overlong");
  const driver::ScheduleCache::Entry e = make_entry(4, 3);
  const std::size_t limit = 4096 + 12 * e.slots.size();
  const auto write_padded = [&](std::uint64_t key, std::size_t length) {
    const std::string text = driver::ScheduleCache::file_text(key, e);
    std::ofstream out(cache_file(dir.path(), key), std::ios::binary);
    out << text << std::string(length - text.size(), '#');
  };
  write_padded(5, limit);
  write_padded(6, limit + 1);
  driver::ScheduleCache cache(64, dir.path());
  EXPECT_TRUE(cache.lookup(5, 3).has_value());
  EXPECT_FALSE(cache.lookup(6, 3).has_value());
  EXPECT_EQ(cache.stats().disk_rejects, 1u);
}

// A file whose slot count disagrees with the loop is a miss like any
// other corrupt file: the compile pipeline schedules afresh and the
// insert replaces the file.
TEST(ScheduleCache, CompileRewritesAFileWithAWrongSlotCount) {
  const machine::MachineModel mach;
  const machine::SpmtConfig cfg;
  const ir::Loop loop = test::tiny_recurrence();
  ScratchDir dir("slotcount");
  const std::uint64_t key = driver::ScheduleCache::key(loop, mach, cfg, "tms");
  write_entry_with_slot_count(dir.path(), key, "-1");

  driver::ScheduleCache cache(64, dir.path());
  const driver::CompileResult r = driver::compile({loop, mach, cfg, "tms", &cache}, true);
  ASSERT_EQ(r.status, driver::CompileStatus::kOk) << r.detail;
  EXPECT_FALSE(r.cache_hit);
  EXPECT_EQ(cache.stats().disk_rejects, 1u);

  std::string slots_line = "slots " + std::to_string(loop.num_instrs());
  for (int v = 0; v < loop.num_instrs(); ++v) {
    slots_line += ' ' + std::to_string(r.compiled->schedule.slot(v));
  }
  EXPECT_NE(read_text(cache_file(dir.path(), key)).find('\n' + slots_line + '\n'),
            std::string::npos)
      << read_text(cache_file(dir.path(), key));
}

TEST(ScheduleCache, RenamedDiskEntryIsRejected) {
  ScratchDir dir("renamed");
  {
    driver::ScheduleCache writer(64, dir.path());
    writer.insert(42, make_entry(9, 3));
  }
  // A file whose embedded key disagrees with its name (copied or renamed
  // by hand) must not be trusted.
  fs::rename(cache_file(dir.path(), 42), cache_file(dir.path(), 43));
  driver::ScheduleCache reader(64, dir.path());
  EXPECT_FALSE(reader.lookup(43, 3).has_value());
  EXPECT_EQ(reader.stats().disk_rejects, 1u);
}

// ------------------------------------------------------------------ batch

std::vector<driver::BatchJob> kernel_jobs() {
  machine::SpmtConfig cfg;
  std::vector<driver::BatchJob> jobs;
  for (const workloads::Kernel& k : workloads::classic_kernels()) {
    for (const char* sched : {"sms", "tms"}) {
      jobs.push_back({k.loop.name(), k.loop, cfg, sched});
    }
  }
  return jobs;
}

TEST(Batch, CanonicalJsonIsIdenticalAcrossThreadCounts) {
  machine::MachineModel mach;
  const std::vector<driver::BatchJob> jobs = kernel_jobs();
  driver::BatchOptions opts;
  opts.simulate_iterations = 40;

  std::vector<std::string> reports;
  for (const int threads : {1, 2, 8}) {
    opts.jobs = threads;
    driver::ScheduleCache cache;  // private per run
    const driver::BatchReport r = driver::run_batch(jobs, mach, opts, &cache);
    EXPECT_EQ(r.count(driver::JobStatus::kOk), static_cast<int>(jobs.size()));
    reports.push_back(r.to_json(/*include_volatile=*/false));
  }
  EXPECT_EQ(reports[0], reports[1]);
  EXPECT_EQ(reports[0], reports[2]);
}

// The canonical trace sorts events by their logical position (context
// phase, item, sequence), so the exported bytes — and the counter
// snapshot riding in the report JSON — must not depend on how the
// JobPool interleaved the jobs.
TEST(Batch, CanonicalTraceIsIdenticalAcrossThreadCounts) {
  if (!obs::trace_compiled()) GTEST_SKIP() << "built with TMS_TRACE=0";
  machine::MachineModel mach;
  const std::vector<driver::BatchJob> jobs = kernel_jobs();
  driver::BatchOptions opts;
  opts.simulate_iterations = 40;

  std::vector<std::string> traces;
  std::vector<std::string> reports;
  for (const int threads : {1, 2, 8}) {
    opts.jobs = threads;
    obs::trace_enable(1u << 18);
    driver::ScheduleCache cache;  // private per run: every job schedules fresh
    const driver::BatchReport r = driver::run_batch(jobs, mach, opts, &cache);
    EXPECT_EQ(r.count(driver::JobStatus::kOk), static_cast<int>(jobs.size()));
    ASSERT_EQ(obs::trace_dropped(), 0u) << "grow the buffer: dropped events break determinism";
    traces.push_back(obs::trace_canonical_json());
    reports.push_back(r.to_json(/*include_volatile=*/false, /*include_counters=*/true));
    obs::trace_disable();
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[0], traces[2]);
  EXPECT_EQ(reports[0], reports[1]) << "counter deltas must be thread-count-invariant";
  EXPECT_EQ(reports[0], reports[2]);
}

TEST(Batch, WarmCacheSecondRunHitsEverywhere) {
  machine::MachineModel mach;
  const std::vector<driver::BatchJob> jobs = kernel_jobs();
  driver::BatchOptions opts;
  opts.jobs = 2;

  driver::ScheduleCache cache;
  const driver::BatchReport cold = driver::run_batch(jobs, mach, opts, &cache);
  EXPECT_EQ(cold.cache.hits(), 0u);
  EXPECT_EQ(cold.cache.misses, jobs.size());

  const driver::BatchReport warm = driver::run_batch(jobs, mach, opts, &cache);
  EXPECT_EQ(warm.cache.hits(), jobs.size()) << "every job must hit on the second run";
  for (const driver::JobResult& r : warm.results) {
    EXPECT_TRUE(r.cache_hit) << r.name << " (" << r.scheduler << ")";
    EXPECT_EQ(r.status, driver::JobStatus::kOk);
  }
  // Warm results agree with cold ones modulo volatile fields. Counters
  // measure work actually performed, so the warm run's are legitimately
  // smaller (nothing was scheduled) — exclude them from the comparison.
  EXPECT_EQ(cold.to_json(/*include_volatile=*/false, /*include_counters=*/false),
            warm.to_json(/*include_volatile=*/false, /*include_counters=*/false));
  EXPECT_EQ(warm.counters.value("sched.slots_tried"), 0u)
      << "a fully warm batch must not run placement trials";
  EXPECT_EQ(warm.counters.value("driver.cache_hits"), jobs.size());
}

TEST(Batch, FailuresAreIsolatedPerJob) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;

  ir::Loop malformed("zero_cycle");
  const ir::NodeId a = malformed.add_instr(ir::Opcode::kFAdd, "a");
  malformed.add_reg_flow(a, a, 0);  // zero-distance self-loop

  std::vector<driver::BatchJob> jobs;
  jobs.push_back({"good_before", test::tiny_chain(), cfg, "tms"});
  jobs.push_back({"bogus_sched", test::tiny_chain(), cfg, "bogus"});
  jobs.push_back({"zero_cycle", malformed, cfg, "tms"});
  jobs.push_back({"good_after", test::tiny_recurrence(), cfg, "sms"});

  driver::BatchOptions opts;
  opts.jobs = 2;
  const driver::BatchReport r = driver::run_batch(jobs, mach, opts, nullptr);
  ASSERT_EQ(r.results.size(), 4u);
  EXPECT_EQ(r.results[0].status, driver::JobStatus::kOk);
  EXPECT_EQ(r.results[1].status, driver::JobStatus::kError);
  EXPECT_NE(r.results[1].detail.find("unknown scheduler"), std::string::npos)
      << r.results[1].detail;
  EXPECT_EQ(r.results[2].status, driver::JobStatus::kError);
  EXPECT_NE(r.results[2].detail.find("malformed loop"), std::string::npos)
      << r.results[2].detail;
  EXPECT_EQ(r.results[3].status, driver::JobStatus::kOk);
}

TEST(Batch, SemanticallyCorruptCacheEntryIsRecomputed) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  // A recurrence forces cross-thread synchronisation, so the schedule's
  // C_delay is strictly positive and a zeroed threshold must fail it.
  const ir::Loop loop = test::tiny_recurrence();
  const std::vector<driver::BatchJob> jobs = {{"rec", loop, cfg, "tms"}};
  driver::BatchOptions opts;
  opts.jobs = 1;

  ScratchDir dir("semantic");
  const std::uint64_t key = driver::ScheduleCache::key(loop, mach, cfg, "tms");
  {
    driver::ScheduleCache cache(64, dir.path());
    const driver::BatchReport cold = driver::run_batch(jobs, mach, opts, &cache);
    ASSERT_EQ(cold.results[0].status, driver::JobStatus::kOk);

    // Tamper with the persisted entry: keep the schedule intact but set
    // an unsatisfiable TMS acceptance threshold. The entry is well-formed
    // at the format level and reconstructs into a dependence-respecting
    // schedule, so only the driver's re-validation of cache hits can
    // catch it.
    auto entry = cache.lookup(key, loop.num_instrs());
    ASSERT_TRUE(entry.has_value());
    entry->c_delay_threshold = 0;
    entry->p_max = 0.0;
    cache.insert(key, *entry);
  }

  driver::ScheduleCache cache(64, dir.path());
  const driver::BatchReport r = driver::run_batch(jobs, mach, opts, &cache);
  ASSERT_EQ(r.results[0].status, driver::JobStatus::kOk) << r.results[0].detail;
  EXPECT_FALSE(r.results[0].cache_hit) << "corrupt hit must be demoted to a recompute";
  EXPECT_EQ(cache.stats().disk_hits, 1u);

  // The recompute overwrote the bad entry: a third run hits cleanly.
  const driver::BatchReport again = driver::run_batch(jobs, mach, opts, &cache);
  EXPECT_TRUE(again.results[0].cache_hit);
  EXPECT_EQ(again.results[0].status, driver::JobStatus::kOk);
}

// --------------------------------------------------------------- TaskPool

// A task body parked on a promise: lets tests hold the pool's single
// worker busy while they probe queue admission and cancellation.
struct Blocker {
  std::promise<void> release;
  std::shared_future<void> gate{release.get_future().share()};
  std::promise<void> started;

  std::function<void()> body() {
    return [this] {
      started.set_value();
      gate.wait();
    };
  }
};

TEST(TaskPool, RunsSubmittedTasks) {
  driver::TaskPool pool(2, 32);  // queue holds every task even if no worker has started
  std::atomic<int> ran{0};
  std::vector<std::shared_ptr<driver::TaskPool::Task>> tasks;
  for (int i = 0; i < 16; ++i) {
    auto t = pool.try_submit([&] { ran.fetch_add(1); });
    ASSERT_NE(t, nullptr);
    tasks.push_back(std::move(t));
  }
  for (const auto& t : tasks) {
    t->wait();
    EXPECT_EQ(t->state(), driver::TaskPool::TaskState::kDone);
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(TaskPool, CancelBeforeStartSkipsBody) {
  driver::TaskPool pool(1, 4);
  Blocker blocker;
  auto front = pool.try_submit(blocker.body());
  ASSERT_NE(front, nullptr);
  blocker.started.get_future().wait();  // worker is now parked on the gate

  std::atomic<bool> ran{false};
  auto queued = pool.try_submit([&] { ran.store(true); });
  ASSERT_NE(queued, nullptr);
  EXPECT_EQ(queued->state(), driver::TaskPool::TaskState::kQueued);

  EXPECT_TRUE(queued->cancel());
  EXPECT_EQ(queued->state(), driver::TaskPool::TaskState::kCancelled);
  EXPECT_FALSE(queued->cancel()) << "second cancel must report failure";

  blocker.release.set_value();
  front->wait();
  queued->wait();  // must not hang on a cancelled task
  EXPECT_FALSE(ran.load()) << "cancelled body must never run";
  EXPECT_EQ(queued->state(), driver::TaskPool::TaskState::kCancelled);
}

TEST(TaskPool, CancelFailsOnceRunning) {
  driver::TaskPool pool(1, 4);
  Blocker blocker;
  auto t = pool.try_submit(blocker.body());
  ASSERT_NE(t, nullptr);
  blocker.started.get_future().wait();
  EXPECT_EQ(t->state(), driver::TaskPool::TaskState::kRunning);
  EXPECT_FALSE(t->cancel());
  blocker.release.set_value();
  t->wait();
  EXPECT_EQ(t->state(), driver::TaskPool::TaskState::kDone);
  EXPECT_FALSE(t->cancel()) << "cancel after completion must fail";
}

TEST(TaskPool, ExceptionIsCapturedAndRethrown) {
  driver::TaskPool pool(1, 4);
  auto t = pool.try_submit([] { throw std::runtime_error("task body exploded"); });
  ASSERT_NE(t, nullptr);
  t->wait();
  EXPECT_EQ(t->state(), driver::TaskPool::TaskState::kFailed);
  try {
    t->rethrow();
    FAIL() << "rethrow must throw the captured exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task body exploded");
  }

  // The worker survives the throwing task and keeps serving.
  auto next = pool.try_submit([] {});
  ASSERT_NE(next, nullptr);
  next->wait();
  EXPECT_EQ(next->state(), driver::TaskPool::TaskState::kDone);
  next->rethrow();  // no-op on success
}

TEST(TaskPool, TrySubmitRefusesWhenQueueFull) {
  driver::TaskPool pool(1, 1);
  Blocker blocker;
  auto running = pool.try_submit(blocker.body());
  ASSERT_NE(running, nullptr);
  blocker.started.get_future().wait();  // worker busy; queue empty
  EXPECT_EQ(pool.queue_depth(), 0u);

  auto queued = pool.try_submit([] {});
  ASSERT_NE(queued, nullptr);  // fills the only queue slot
  EXPECT_EQ(pool.queue_depth(), 1u);

  EXPECT_EQ(pool.try_submit([] {}), nullptr) << "queue at capacity must refuse admission";

  blocker.release.set_value();
  running->wait();
  queued->wait();
  EXPECT_EQ(queued->state(), driver::TaskPool::TaskState::kDone);

  // Capacity freed: admission works again.
  auto after = pool.try_submit([] {});
  ASSERT_NE(after, nullptr);
  after->wait();
}

TEST(TaskPool, WaitUntilTimesOutWhileQueued) {
  driver::TaskPool pool(1, 4);
  Blocker blocker;
  auto running = pool.try_submit(blocker.body());
  ASSERT_NE(running, nullptr);
  blocker.started.get_future().wait();

  auto queued = pool.try_submit([] {});
  ASSERT_NE(queued, nullptr);
  EXPECT_FALSE(queued->wait_until(std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(20)));
  EXPECT_EQ(queued->state(), driver::TaskPool::TaskState::kQueued);

  blocker.release.set_value();
  EXPECT_TRUE(queued->wait_until(std::chrono::steady_clock::now() +
                                 std::chrono::seconds(30)));
  running->wait();
}

TEST(TaskPool, ShutdownCancelQueuedDropsPendingWork) {
  driver::TaskPool pool(1, 8);
  Blocker blocker;
  auto running = pool.try_submit(blocker.body());
  ASSERT_NE(running, nullptr);
  blocker.started.get_future().wait();

  std::atomic<int> ran{0};
  auto queued = pool.try_submit([&] { ran.fetch_add(1); });
  ASSERT_NE(queued, nullptr);

  // shutdown() joins, so the blocker must be released while it waits.
  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    blocker.release.set_value();
  });
  pool.shutdown(driver::TaskPool::Drain::kCancelQueued);
  releaser.join();

  EXPECT_EQ(running->state(), driver::TaskPool::TaskState::kDone)
      << "in-flight task finishes even under kCancelQueued";
  EXPECT_EQ(queued->state(), driver::TaskPool::TaskState::kCancelled);
  EXPECT_EQ(ran.load(), 0);
  EXPECT_EQ(pool.try_submit([] {}), nullptr) << "no admission after shutdown";
  pool.shutdown(driver::TaskPool::Drain::kCancelQueued);  // idempotent
}

TEST(TaskPool, ShutdownFinishQueuedRunsEverything) {
  driver::TaskPool pool(1, 8);
  Blocker blocker;
  auto running = pool.try_submit(blocker.body());
  ASSERT_NE(running, nullptr);
  blocker.started.get_future().wait();

  std::atomic<int> ran{0};
  std::vector<std::shared_ptr<driver::TaskPool::Task>> queued;
  for (int i = 0; i < 3; ++i) {
    auto t = pool.try_submit([&] { ran.fetch_add(1); });
    ASSERT_NE(t, nullptr);
    queued.push_back(std::move(t));
  }

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    blocker.release.set_value();
  });
  pool.shutdown(driver::TaskPool::Drain::kFinishQueued);
  releaser.join();

  EXPECT_EQ(ran.load(), 3) << "graceful drain must run every queued task";
  for (const auto& t : queued) {
    EXPECT_EQ(t->state(), driver::TaskPool::TaskState::kDone);
  }
}

// ------------------------------------------------- ScheduleCache disk bound

TEST(ScheduleCache, DiskBoundEvictsOldestEntryFiles) {
  ScratchDir dir("disk_bound");
  // All entries serialise identically (same ii, same slot count, and the
  // key is a fixed-width hex name), so measure one file and budget two.
  std::uintmax_t entry_bytes = 0;
  {
    driver::ScheduleCache probe(64, dir.path());
    probe.insert(1, make_entry(4, 3));
    entry_bytes = fs::file_size(cache_file(dir.path(), 1));
    ASSERT_GT(entry_bytes, 0u);
  }
  fs::remove_all(dir.path());
  fs::create_directories(dir.path());

  driver::ScheduleCache cache(64, dir.path(), 2 * entry_bytes + 1);
  cache.insert(1, make_entry(4, 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.insert(2, make_entry(4, 3));
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  cache.insert(3, make_entry(4, 3));

  EXPECT_FALSE(fs::exists(cache_file(dir.path(), 1)))
      << "oldest file must be evicted to fit the byte bound";
  EXPECT_TRUE(fs::exists(cache_file(dir.path(), 2)));
  EXPECT_TRUE(fs::exists(cache_file(dir.path(), 3)));

  const driver::ScheduleCache::Stats s = cache.stats();
  EXPECT_EQ(s.disk_evictions, 1u);
  EXPECT_EQ(s.max_disk_bytes, 2 * entry_bytes + 1);
  EXPECT_LE(s.disk_bytes, s.max_disk_bytes);
  EXPECT_EQ(s.disk_bytes, 2 * entry_bytes);

  // The surviving files still load from a cold cache.
  driver::ScheduleCache cold(64, dir.path(), 2 * entry_bytes + 1);
  EXPECT_TRUE(cold.lookup(3, 3).has_value());
  EXPECT_FALSE(cold.lookup(1, 3).has_value()) << "evicted key must miss";
}

TEST(ScheduleCache, DiskBoundEnforcedAgainstPreexistingFiles) {
  ScratchDir dir("disk_rescan");
  std::uintmax_t entry_bytes = 0;
  {
    driver::ScheduleCache writer(64, dir.path());  // unbounded
    writer.insert(1, make_entry(4, 3));
    entry_bytes = fs::file_size(cache_file(dir.path(), 1));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    writer.insert(2, make_entry(4, 3));
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    writer.insert(3, make_entry(4, 3));
    EXPECT_EQ(writer.stats().disk_evictions, 0u) << "unbounded cache never evicts";
  }

  // Reopening with a bound must sweep the leftovers down to the budget.
  driver::ScheduleCache bounded(64, dir.path(), 2 * entry_bytes + 1);
  EXPECT_FALSE(fs::exists(cache_file(dir.path(), 1)));
  EXPECT_TRUE(fs::exists(cache_file(dir.path(), 2)));
  EXPECT_TRUE(fs::exists(cache_file(dir.path(), 3)));
  EXPECT_LE(bounded.stats().disk_bytes, bounded.stats().max_disk_bytes);
  EXPECT_GE(bounded.stats().disk_evictions, 1u);
}

TEST(ScheduleCache, ZeroDiskBoundMeansUnbounded) {
  ScratchDir dir("disk_unbounded");
  driver::ScheduleCache cache(64, dir.path(), 0);
  for (std::uint64_t k = 1; k <= 8; ++k) cache.insert(k, make_entry(4, 3));
  for (std::uint64_t k = 1; k <= 8; ++k) {
    EXPECT_TRUE(fs::exists(cache_file(dir.path(), k))) << "key " << k;
  }
  EXPECT_EQ(cache.stats().disk_evictions, 0u);
}

// ---------------------------------------------------- batch exit contract

// tmsbatch exits non-zero iff any job failed; the expression it uses is
// `count(kOk) == results.size()`. Pin the report-side arithmetic here so
// the tool-level contract (docs/DRIVER.md) can't silently drift.
TEST(Batch, ReportCountsFeedTheExitCodeContract) {
  machine::MachineModel mach;
  machine::SpmtConfig cfg;
  std::vector<driver::BatchJob> jobs;
  jobs.push_back({"ok_job", test::tiny_chain(), cfg, "tms"});
  jobs.push_back({"bad_job", test::tiny_chain(), cfg, "bogus"});

  driver::BatchOptions opts;
  opts.jobs = 1;
  const driver::BatchReport r = driver::run_batch(jobs, mach, opts, nullptr);
  ASSERT_EQ(r.results.size(), 2u);
  EXPECT_EQ(r.count(driver::JobStatus::kOk), 1);
  EXPECT_NE(static_cast<std::size_t>(r.count(driver::JobStatus::kOk)), r.results.size())
      << "a failing job must make the all-ok exit predicate false";

  std::vector<driver::BatchJob> good(jobs.begin(), jobs.begin() + 1);
  const driver::BatchReport ok = driver::run_batch(good, mach, opts, nullptr);
  EXPECT_EQ(static_cast<std::size_t>(ok.count(driver::JobStatus::kOk)), ok.results.size())
      << "an all-ok report must make the exit predicate true";
}

}  // namespace
}  // namespace tms
