// The SpMT simulator's engine, event-driven (docs/SIMULATOR.md).
//
// It implements the execution model of sim.hpp: thread k runs
// kernel iteration k on the core chosen by the configured allocation
// policy (SpmtConfig::policy via policy::make_policy; the paper default
// is core k mod ncore), sequential spawn/commit, policy-priced register
// forwarding (ring SEND/RECV legs plus the optional shared-bus
// contention charge), speculated memory dependences with squash +
// re-execute. It is organised around events rather than the legacy
// stepper's monolithic per-thread loop:
//
//   * Each simulated core owns a ready queue of threads waiting for the
//     core to drain its previous commit; a global min-heap of
//     (time, seq) events (core-wake, squash-retry) plus a one-slot
//     pending-spawn register (spawns form a serial chain, so the next
//     one never needs heap residency) advances the shared simulated
//     clock straight to the next event — idle cores are never stepped.
//   * Per-address store history is kept sorted by program-order key
//     with a prefix-max-time index, turning the legacy O(stores) scan
//     per load into a binary search plus an O(1) no-violation check
//     (the linear scan survives only on the rare violating path). After
//     each commit, the prefix that no uncommitted thread can tell apart
//     is folded into one record, so the history is bounded by the
//     threads in flight rather than growing with N.
//   * When the caller does not ask for the committed memory image
//     (keep_memory == false), steady-state threads walk only the
//     "eventful" kernel ops — ops with cross-thread register inputs,
//     loads/stores, channel producers, or ring backpressure — and fold
//     the pure compute ops in between into precomputed per-segment
//     completion maxima. Timing never depends on functional values, so
//     the stats stay bit-identical while skipping most of the work.
//   * The per-op state the walk touches is flattened up front: kernel
//     metadata (rows, latencies, input lists, address streams) lives in
//     one dense OpInfo array with CSR input ranges, ring-wall slots are
//     derived from one per-walk residue (k mod ring) by subtraction
//     instead of a modulo per access, a thread's uncommitted stores
//     sit in a small linear buffer (bounded by stores_per_iter),
//     and the address -> history lookup is an insert-only open-addressed
//     table — the hot path never consults a node-indexed hash map.
//
// Every stat, the committed memory image, the value fingerprint and
// the trace are bit-identical to the legacy stepper, the simulator's
// original engine, which the tests keep as the differential reference
// (tests/legacy_stepper.cpp). The differential suite in
// tests/event_sim_test.cpp enforces this on randomized workloads, and
// docs/SIMULATOR.md spells out why the guarantee holds.
#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <queue>
#include <vector>

#include "ir/graph.hpp"
#include "obs/counters.hpp"
#include "obs/trace.hpp"
#include "policy/policy.hpp"
#include "spmt/cache.hpp"
#include "spmt/sim.hpp"
#include "spmt/values.hpp"
#include "support/assert.hpp"

namespace tms::spmt {
namespace {

struct StoreRec {
  std::int64_t key = 0;  ///< program-order position (src_iter * n + topo_rank)
  std::int64_t time = 0;
  std::uint64_t value = 0;
  std::int64_t thread = 0;
};

/// Stores to one address, sorted by program-order key, with a running
/// prefix maximum of store times. A load at time t with program-order
/// key K misses no store iff max(time of stores with key < K) <= t —
/// one comparison instead of a scan.
struct AddrHist {
  std::uint64_t addr = 0;
  std::vector<StoreRec> recs;
  std::vector<std::int64_t> time_pmax;
  /// A fold rescans and shifts the timeline, so it waits until the
  /// timeline has doubled since the last fold (and holds at least
  /// kMinFold records): O(1) amortised per insert.
  static constexpr std::size_t kMinFold = 16;
  std::size_t fold_at = kMinFold;  ///< recs.size() that triggers the next fold

  void insert(const StoreRec& rec) {
    // Commits happen in thread order and an address is written by one
    // store node, so keys ascend and inserts are appends in practice;
    // the general path only covers adversarial streams.
    if (recs.empty() || rec.key > recs.back().key) {
      time_pmax.push_back(recs.empty() ? rec.time : std::max(time_pmax.back(), rec.time));
      recs.push_back(rec);
      return;
    }
    auto it = std::lower_bound(recs.begin(), recs.end(), rec.key,
                               [](const StoreRec& r, std::int64_t key) { return r.key < key; });
    const std::size_t pos = static_cast<std::size_t>(it - recs.begin());
    recs.insert(it, rec);
    time_pmax.resize(recs.size());
    for (std::size_t i = pos; i < recs.size(); ++i) {
      time_pmax[i] = (i == 0) ? recs[i].time : std::max(time_pmax[i - 1], recs[i].time);
    }
  }

  /// Folds the leading records that no later load can tell apart into
  /// one: every later load has a key >= key_horizon and issues at or
  /// after time_horizon, so it sees all of them as older stores that
  /// executed in time, and only the last one's value survives. The
  /// folded record keeps that last key and value and the prefix-max
  /// time, so time_pmax is unchanged past it. Returns the records
  /// removed.
  std::size_t fold(std::int64_t key_horizon, std::int64_t time_horizon) {
    std::size_t m = 0;
    while (m < recs.size() && recs[m].key < key_horizon && time_pmax[m] <= time_horizon) ++m;
    std::size_t removed = 0;
    if (m >= 2) {
      removed = m - 1;
      recs[m - 1].time = time_pmax[m - 1];
      recs.erase(recs.begin(), recs.begin() + static_cast<std::ptrdiff_t>(removed));
      time_pmax.erase(time_pmax.begin(), time_pmax.begin() + static_cast<std::ptrdiff_t>(removed));
    }
    fold_at = std::max(2 * recs.size(), kMinFold);
    return removed;
  }
};

/// Insert-only open-addressed map from address to an index into the
/// engine's AddrHist pool. Committed addresses number in the hundreds
/// (streams wrap in small working sets), so a power-of-two table with
/// linear probing stays tiny and collision-light — and a load's lookup
/// is one probe instead of an unordered_map bucket walk.
class AddrIndex {
 public:
  AddrIndex() { slots_.assign(64, Slot{}); }

  int find(std::uint64_t addr) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(addr) & mask;; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.idx < 0) return -1;
      if (s.addr == addr) return s.idx;
    }
  }

  /// Returns the slot for `addr`, inserting `fresh_idx` if absent
  /// (`inserted` reports which).
  int find_or_insert(std::uint64_t addr, int fresh_idx, bool& inserted) {
    if ((size_ + 1) * 2 > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash(addr) & mask;; i = (i + 1) & mask) {
      Slot& s = slots_[i];
      if (s.idx < 0) {
        s.addr = addr;
        s.idx = fresh_idx;
        ++size_;
        inserted = true;
        return fresh_idx;
      }
      if (s.addr == addr) {
        inserted = false;
        return s.idx;
      }
    }
  }

 private:
  struct Slot {
    std::uint64_t addr = 0;
    int idx = -1;
  };

  static std::size_t hash(std::uint64_t a) {
    a *= 0x9e3779b97f4a7c15ULL;
    return static_cast<std::size_t>(a ^ (a >> 32));
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    const std::size_t mask = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.idx < 0) continue;
      std::size_t i = hash(s.addr) & mask;
      while (slots_[i].idx >= 0) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

struct WalkResult {
  std::int64_t completion = 0;
  std::int64_t sync_stall = 0;
  std::int64_t mem_stall = 0;
  std::int64_t send_block = 0;
  std::int64_t bus_transfers = 0;  ///< not attempt-gated: final walk only is committed
  std::int64_t instances = 0;
  bool violated = false;
  std::int64_t detect_time = 0;
};

constexpr std::int64_t kNoDetect = std::numeric_limits<std::int64_t>::max();

class EventEngine {
 public:
  EventEngine(const ir::Loop& loop, const codegen::KernelProgram& kp,
              const machine::SpmtConfig& cfg, const AddressStreams& streams,
              const SpmtOptions& opts)
      : loop_(loop), kp_(kp), cfg_(cfg), opts_(opts), hier_(cfg, cfg.ncore),
        pol_(policy::make_policy(cfg, loop)), uniform_(pol_->uniform()) {
    const std::size_t ninstr = static_cast<std::size_t>(loop.num_instrs());
    const std::vector<ir::NodeId> topo = ir::topo_order_intra(loop);
    rank_.assign(ninstr, 0);
    for (std::size_t r = 0; r < topo.size(); ++r) {
      rank_[static_cast<std::size_t>(topo[r])] = static_cast<std::int64_t>(r);
    }
    topo_ = topo;

    int max_dker = 1;
    for (const auto& in : kp.inputs) max_dker = std::max(max_dker, in.d_ker);
    for (const auto& in : kp.mem_inputs) max_dker = std::max(max_dker, in.d_ker);
    for (const auto& ops : kp.reg_operands) {
      for (const auto& o : ops) max_dker = std::max(max_dker, o.d_ker);
    }
    // Exactly the legacy ring size: slot contents that are never
    // rewritten for a live instance keep whatever an aliased older
    // instance left there, and the backpressure check can read such a
    // slot — identical aliasing requires an identical ring.
    ring_ = static_cast<std::int64_t>(std::max(max_dker, cfg.ring_queue_entries) + 2);
    const std::size_t wall_slots = ninstr * static_cast<std::size_t>(ring_);
    values_flat_.assign(wall_slots, 0);
    completion_wall_.assign(wall_slots, 0);
    consume_wall_.assign(wall_slots, 0);

    std::vector<int> first_hop(ninstr, 0);
    for (const auto& in : kp.inputs) {
      int& hop = first_hop[static_cast<std::size_t>(in.producer)];
      hop = (hop == 0) ? in.d_ker : std::min(hop, in.d_ker);
    }
    std::vector<int> stage(ninstr, 0);
    for (const codegen::KernelOp& op : kp.ops) {
      stage[static_cast<std::size_t>(op.node)] = op.stage;
    }
    std::vector<char> mem_producer(ninstr, 0);
    for (const auto& in : kp.mem_inputs) {
      mem_producer[static_cast<std::size_t>(in.producer)] = 1;
    }

    // Flatten everything the per-op step touches into one dense array
    // (CSR input ranges, resolved address streams, precomputed wall
    // bases) so the walk reads contiguous memory instead of chasing
    // per-node vectors and hash buckets.
    auto flatten_inputs = [&](const std::vector<codegen::CrossThreadInput>& ins,
                              ir::NodeId consumer, std::vector<RegIn>& flat) {
      for (const codegen::CrossThreadInput& in : ins) {
        if (in.consumer != consumer) continue;
        RegIn ri;
        ri.d_ker = in.d_ker;
        // Uniform policies price an input once here; non-uniform ones
        // are queried per access in step_op (the consumer thread
        // matters, so no per-input constant exists).
        if (uniform_) {
          const policy::CommCost cost = pol_->comm_cost(in.d_ker, /*k=*/0);
          ri.hop_cost = cost.delay;
          ri.transfers = cost.transfers;
        }
        ri.producer_stage = stage[static_cast<std::size_t>(in.producer)];
        ri.producer_wall_base =
            static_cast<std::size_t>(in.producer) * static_cast<std::size_t>(ring_);
        ri.is_first_hop = in.d_ker == first_hop[static_cast<std::size_t>(in.producer)];
        flat.push_back(ri);
      }
    };

    op_info_.reserve(kp.ops.size());
    for (std::size_t i = 0; i < kp.ops.size(); ++i) {
      const codegen::KernelOp& op = kp.ops[i];
      const std::size_t nd = static_cast<std::size_t>(op.node);
      OpInfo oi;
      oi.node = op.node;
      oi.kp_index = static_cast<std::uint32_t>(i);
      oi.stage = op.stage;
      oi.row = op.row;
      oi.latency = op.latency;
      oi.is_load = op.is_load;
      oi.is_store = op.is_store;
      oi.backpressure = first_hop[nd] > 0 && first_hop[nd] < cfg.ring_queue_entries;
      oi.wall_base = nd * static_cast<std::size_t>(ring_);
      oi.key_base = rank_[nd];
      if (op.is_load || op.is_store) oi.addr_fn = &streams.fn(op.node);
      oi.reg_begin = static_cast<std::uint32_t>(reg_in_flat_.size());
      flatten_inputs(kp.inputs, op.node, reg_in_flat_);
      oi.reg_end = static_cast<std::uint32_t>(reg_in_flat_.size());
      oi.mem_begin = static_cast<std::uint32_t>(mem_in_flat_.size());
      if (op.is_load) flatten_inputs(kp.mem_inputs, op.node, mem_in_flat_);
      oi.mem_end = static_cast<std::uint32_t>(mem_in_flat_.size());
      op_info_.push_back(oi);
    }

    // Partition kernel ops for the timing-only steady-state fast path:
    // "eventful" ops can stall, probe caches, publish channel values or
    // free ring entries; everything else only contributes its
    // completion time, folded per segment into seg_max_.
    seg_max_.assign(1, -1);
    for (std::size_t i = 0; i < kp.ops.size(); ++i) {
      const OpInfo& oi = op_info_[i];
      const std::size_t nd = static_cast<std::size_t>(oi.node);
      const bool eventful = oi.is_load || oi.is_store || oi.reg_begin != oi.reg_end ||
                            first_hop[nd] > 0 || mem_producer[nd] != 0;
      if (eventful) {
        eventful_.push_back(oi);
        seg_max_.push_back(-1);
      } else {
        std::int64_t& seg = seg_max_.back();
        seg = std::max(seg, static_cast<std::int64_t>(oi.row) + oi.latency);
      }
    }
    local_stores_.reserve(static_cast<std::size_t>(std::max(kp.stores_per_iter, 1)));
  }

  SpmtResult run() {
    const std::int64_t n = opts_.iterations;
    num_threads_ = n + kp_.stage_count - 1;
    completion_of_thread_.assign(static_cast<std::size_t>(num_threads_), 0);

    // Live-in broadcast: live-in registers reach every participating
    // core hop by hop before thread 0 can spawn.
    const std::int64_t startup = cfg_.c_reg_com + (cfg_.ncore - 1) * cfg_.hop_cycles;
    cores_.assign(static_cast<std::size_t>(cfg_.ncore), Core{startup, {}});
    commit_end_prev_ = startup;

    if (opts_.keep_memory) {
      committed_values_.assign(
          static_cast<std::size_t>(n) * static_cast<std::size_t>(loop_.num_instrs()), 0);
    }

    // Spawns form a serial chain (thread k+1 spawns C_spn after thread
    // k's final start), so the next spawn lives in a one-slot pending
    // register instead of the heap; it still carries a (time, seq) pair
    // and yields to any queued event that sorts before it, so the
    // processing order is exactly the all-heap order.
    spawn_ = Spawn{true, startup, next_seq_++, 0};
    while (spawn_.active || !events_.empty()) {
      if (spawn_.active) {
        const bool queue_first =
            !events_.empty() && (events_.top().time < spawn_.time ||
                                 (events_.top().time == spawn_.time &&
                                  events_.top().seq < spawn_.seq));
        if (!queue_first) {
          const std::int64_t k = spawn_.k;
          const std::int64_t at = spawn_.time;
          spawn_.active = false;
          ++events_processed_;
          clock_ = std::max(clock_, at);
          Core& core = core_of(k);
          if (core.free_at > at) {
            // Core still draining its previous commit: park the thread
            // on the core's ready queue and wake when the core frees.
            core.ready.push_back(k);
            push_event(core.free_at, EvKind::kCoreWake, core_index(k));
          } else {
            start_thread(k, at);
          }
          continue;
        }
      }
      const Event e = events_.top();
      events_.pop();
      ++events_processed_;
      clock_ = std::max(clock_, e.time);
      switch (e.kind) {
        case EvKind::kCoreWake: {
          Core& core = cores_[static_cast<std::size_t>(e.arg)];
          if (core.ready.empty()) break;
          if (core.free_at > e.time) {
            // The commit chain pushed the core further out meanwhile.
            push_event(core.free_at, EvKind::kCoreWake, e.arg);
            break;
          }
          const std::int64_t k = core.ready.front();
          core.ready.pop_front();
          start_thread(k, e.time);
          break;
        }
        case EvKind::kRetry:
          // Squashed thread re-executes at the detection (or
          // head-serialisation) time computed when it was squashed.
          attempt_thread(e.arg);
          break;
      }
    }
    TMS_ASSERT(res_.stats.threads_committed == num_threads_);

    res_.stats.bus_cycles = res_.stats.bus_transfers * cfg_.bus_transfer_cycles();
    res_.stats.l2_hits = hier_.l2_hits();
    res_.stats.l2_misses = hier_.l2_misses();
    for (int c = 0; c < cfg_.ncore; ++c) {
      res_.stats.l1_hits += hier_.l1_hits(c);
      res_.stats.l1_misses += hier_.l1_misses(c);
    }

    if (opts_.keep_memory) {
      for (const AddrHist& hist : hists_) {
        if (!hist.recs.empty()) res_.memory[hist.addr] = hist.recs.back().value;
      }
      for (std::int64_t i = 0; i < n; ++i) {
        for (const ir::NodeId v : topo_) {
          res_.value_fingerprint =
              mix(res_.value_fingerprint,
                  committed_values_[static_cast<std::size_t>(i) *
                                        static_cast<std::size_t>(loop_.num_instrs()) +
                                    static_cast<std::size_t>(v)]);
        }
      }
    }
    return std::move(res_);
  }

  std::int64_t spec_wait_cycles() const { return spec_wait_cycles_; }
  std::int64_t events_processed() const { return events_processed_; }
  std::uint64_t store_records() const { return store_records_; }
  std::uint64_t store_records_folded() const { return store_records_folded_; }

 private:
  enum class EvKind : std::uint8_t { kCoreWake, kRetry };
  struct Event {
    std::int64_t time = 0;
    std::uint64_t seq = 0;
    EvKind kind = EvKind::kCoreWake;
    std::int64_t arg = 0;  ///< core (kCoreWake) or thread (kRetry)
  };
  /// The pending thread spawn — a one-slot "event" ordered against the
  /// heap by the same (time, seq) key.
  struct Spawn {
    bool active = false;
    std::int64_t time = 0;
    std::uint64_t seq = 0;
    std::int64_t k = 0;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      return a.time != b.time ? a.time > b.time : a.seq > b.seq;
    }
  };
  struct Core {
    std::int64_t free_at = 0;
    std::deque<std::int64_t> ready;
  };

  /// One cross-thread (register or synchronised-memory) input, with the
  /// producer's wall base and hop latency resolved at construction.
  struct RegIn {
    int d_ker = 0;
    int producer_stage = 0;
    bool is_first_hop = false;
    std::int64_t hop_cost = 0;   ///< uniform policies only; else queried per access
    std::int64_t transfers = 0;  ///< bus transfers per delivery (uniform policies)
    std::size_t producer_wall_base = 0;
  };

  /// Everything the per-op step reads, dense and in kernel order.
  struct OpInfo {
    ir::NodeId node = 0;
    std::uint32_t kp_index = 0;  ///< into kp_.ops / kp_.reg_operands[node]
    int stage = 0;
    int row = 0;
    int latency = 0;
    bool is_load = false;
    bool is_store = false;
    bool backpressure = false;  ///< producer with first hop inside the ring window
    std::uint32_t reg_begin = 0, reg_end = 0;  ///< into reg_in_flat_
    std::uint32_t mem_begin = 0, mem_end = 0;  ///< into mem_in_flat_
    const AddressStreams::Fn* addr_fn = nullptr;  ///< loads/stores only
    std::size_t wall_base = 0;   ///< node * ring_
    std::int64_t key_base = 0;   ///< topo rank (prog_key = src_iter * n + key_base)
  };

  struct LocalStore {
    std::uint64_t addr = 0;
    StoreRec rec;
  };

  void push_event(std::int64_t time, EvKind kind, std::int64_t arg) {
    events_.push(Event{time, next_seq_++, kind, arg});
  }

  /// The single iteration→core mapping seam: every placement decision
  /// (spawn, wake, trace, walk) goes through the policy here.
  int core_index(std::int64_t k) const { return pol_->core_of(k); }
  Core& core_of(std::int64_t k) { return cores_[static_cast<std::size_t>(core_index(k))]; }

  void start_thread(std::int64_t k, std::int64_t earliest) {
    cur_start_ = std::max(earliest, core_of(k).free_at);
    cur_attempt_ = 0;
    if (kp_.stores_per_iter > cfg_.spec_write_buffer_entries) {
      // The speculation write buffer cannot hold the thread's stores:
      // the thread must run non-speculatively (as head).
      cur_start_ = std::max(cur_start_, commit_end_prev_);
      ++res_.stats.wb_overflow_waits;
    }
    attempt_thread(k);
  }

  void attempt_thread(std::int64_t k) {
    local_stores_.clear();
    const WalkResult wr = walk(k, cur_start_, cur_attempt_);
    if (wr.violated) {
      ++res_.stats.misspeculations;
      res_.stats.squashed_cycles += (wr.completion - cur_start_) + cfg_.c_inv;
      ++cur_attempt_;
      const std::int64_t wake = cur_attempt_ > opts_.max_reexecutions
                                    ? std::max(cur_start_, commit_end_prev_)
                                    : std::max(cur_start_, wr.detect_time + cfg_.c_inv);
      cur_start_ = wake;
      push_event(wake, EvKind::kRetry, k);
      return;
    }
    commit_thread(k, wr);
  }

  void commit_thread(std::int64_t k, const WalkResult& wr) {
    const std::int64_t commit_end = std::max(wr.completion, commit_end_prev_) + cfg_.c_ci;
    completion_of_thread_[static_cast<std::size_t>(k)] = wr.completion;
    core_of(k).free_at = commit_end;
    commit_end_prev_ = commit_end;

    // Every later load belongs to a thread after k: it runs source
    // iterations >= k + 2 - stage_count, and it issues no earlier than
    // k+1's spawn, because spawns form a serial chain, starts only move
    // later, and rows and shifts are >= 0. History older than both
    // horizons is folded once an address's timeline has doubled.
    fold_key_horizon_ = (k + 2 - kp_.stage_count) * loop_.num_instrs();
    fold_time_horizon_ = cur_start_ + cfg_.c_spn;
    for (const LocalStore& ls : local_stores_) {
      bool inserted = false;
      const int idx =
          addr_index_.find_or_insert(ls.addr, static_cast<int>(hists_.size()), inserted);
      if (inserted) {
        hists_.emplace_back();
        hists_.back().addr = ls.addr;
      }
      AddrHist& hist = hists_[static_cast<std::size_t>(idx)];
      hist.insert(ls.rec);
      if (hist.recs.size() >= hist.fold_at) {
        store_records_folded_ += hist.fold(fold_key_horizon_, fold_time_horizon_);
      }
    }
    store_records_ += local_stores_.size();

    ++res_.stats.threads_committed;
    res_.stats.instances_executed += wr.instances;
    res_.stats.sync_stall_cycles += wr.sync_stall;
    res_.stats.mem_stall_cycles += wr.mem_stall;
    res_.stats.send_block_cycles += wr.send_block;
    res_.stats.bus_transfers += wr.bus_transfers;
    if (k >= kp_.stage_count - 1 && k < opts_.iterations) {
      res_.stats.send_recv_pairs += kp_.comm_pairs_per_iter;
    }
    res_.stats.total_cycles = commit_end;
    if (opts_.collect_trace) {
      ThreadTrace tt;
      tt.thread = k;
      tt.core = core_index(k);
      tt.start = cur_start_;
      tt.completion = wr.completion;
      tt.commit_end = commit_end;
      tt.attempts = cur_attempt_ + 1;
      tt.sync_stall = wr.sync_stall;
      tt.mem_stall = wr.mem_stall;
      res_.trace.push_back(tt);
    }

    if (k + 1 < num_threads_) {
      // Sequential spawn: the successor spawns C_spn after this
      // thread's (final, post-squash) start. Commit order is serial, so
      // the one-slot spawn register is always free here.
      spawn_ = Spawn{true, cur_start_ + cfg_.c_spn, next_seq_++, k + 1};
    }
  }

  /// Ring slot from a precomputed residue (k % ring_, maintained by the
  /// walk) — the hot path never divides.
  static std::size_t slot_at(std::size_t wall_base, std::int64_t residue) {
    return wall_base + static_cast<std::size_t>(residue);
  }
  /// Residue of k - d given k's residue, for 0 <= d < ring_.
  std::int64_t res_sub(std::int64_t k_mod, int d) const {
    const std::int64_t r = k_mod - d;
    return r < 0 ? r + ring_ : r;
  }

  WalkResult walk(std::int64_t k, std::int64_t start, int attempt) {
    if (opts_.keep_memory) return walk_ops<true>(k, start, attempt);
    if (k >= kp_.stage_count - 1 && k < opts_.iterations) {
      return walk_steady_timing(k, start, attempt);
    }
    return walk_ops<false>(k, start, attempt);
  }

  /// One kernel op of thread k at tentative issue time t = start + row +
  /// shift: waits (RECV, backpressure, synchronised loads), cache
  /// probes, violation detection, channel-wall updates — everything the
  /// legacy walker does per op, shared by both walk flavours.
  template <bool kValues>
  void step_op(const OpInfo& oi, std::int64_t k, std::int64_t k_mod, int core,
               std::int64_t src_iter, int attempt, std::int64_t& t, std::int64_t& shift,
               std::int64_t& completion, WalkResult& wr) {
    const std::int64_t n = opts_.iterations;

    // Cross-thread register inputs: wait for the ring delivery.
    for (std::uint32_t ii = oi.reg_begin; ii != oi.reg_end; ++ii) {
      const RegIn& in = reg_in_flat_[ii];
      const std::int64_t pk = k - in.d_ker;
      if (pk < 0) continue;  // producer instance predates the loop: live-in
      const std::int64_t src_of_producer = pk - in.producer_stage;
      if (src_of_producer < 0 || src_of_producer >= n) continue;
      const std::int64_t pk_res = res_sub(k_mod, in.d_ker);
      std::int64_t delay = in.hop_cost;
      std::int64_t transfers = in.transfers;
      if (!uniform_) {
        const policy::CommCost cost = pol_->comm_cost(in.d_ker, k);
        delay = cost.delay;
        transfers = cost.transfers;
      }
      wr.bus_transfers += transfers;
      const std::int64_t avail =
          completion_wall_[slot_at(in.producer_wall_base, pk_res)] + delay;
      if (avail > t) {
        const std::int64_t stall = avail - t;
        shift += stall;
        t = avail;
        if (attempt == 0) wr.sync_stall += stall;
      }
      // First-hop RECV frees the producer's ring-queue entry.
      if (in.is_first_hop) {
        consume_wall_[slot_at(in.producer_wall_base, pk_res)] = t;
      }
    }

    // Ring-queue backpressure: a producer's SEND blocks until the
    // receiver has drained the value sent Q instances ago.
    if (oi.backpressure) {
      const std::int64_t freed_k = k - cfg_.ring_queue_entries;
      if (freed_k >= 0) {
        const std::int64_t freed =
            consume_wall_[slot_at(oi.wall_base, res_sub(k_mod, cfg_.ring_queue_entries))];
        const std::int64_t send_at = t + oi.latency;
        if (send_at < freed) {
          const std::int64_t stall = freed - send_at;
          shift += stall;
          t += stall;
          if (attempt == 0) wr.send_block += stall;
        }
      }
    }

    // Synchronised memory dependences (speculation disabled).
    if (opts_.disable_speculation && oi.is_load) {
      for (std::uint32_t mi = oi.mem_begin; mi != oi.mem_end; ++mi) {
        const RegIn& in = mem_in_flat_[mi];
        const std::int64_t pk = k - in.d_ker;
        if (pk < 0) continue;
        const std::int64_t src_of_producer = pk - in.producer_stage;
        if (src_of_producer < 0 || src_of_producer >= n) continue;
        std::int64_t delay = in.hop_cost;
        std::int64_t transfers = in.transfers;
        if (!uniform_) {
          const policy::CommCost cost = pol_->comm_cost(in.d_ker, k);
          delay = cost.delay;
          transfers = cost.transfers;
        }
        wr.bus_transfers += transfers;
        const std::int64_t avail =
            completion_wall_[slot_at(in.producer_wall_base, res_sub(k_mod, in.d_ker))] +
            delay;
        if (avail > t) {
          const std::int64_t stall = avail - t;
          shift += stall;
          t = avail;
          if (attempt == 0) spec_wait_cycles_ += stall;
        }
      }
    }

    // Operand values, folded exactly like the reference interpreter
    // (skipped entirely in timing-only mode: timing never reads them).
    std::uint64_t acc = 0;
    if constexpr (kValues) {
      acc = node_seed(oi.node, loop_.instr(oi.node).op);
      for (const codegen::OperandRef& o : kp_.reg_operands[static_cast<std::size_t>(oi.node)]) {
        const std::int64_t si = src_iter - o.distance;
        std::uint64_t operand;
        if (si < 0) {
          operand = live_in_value(o.src);
        } else {
          operand = values_flat_[slot_at(
              static_cast<std::size_t>(o.src) * static_cast<std::size_t>(ring_),
              res_sub(k_mod, o.d_ker))];
        }
        acc = mix(acc, operand);
      }
    }

    if (oi.is_load) {
      const std::uint64_t addr = (*oi.addr_fn)(src_iter);
      const int lat = hier_.access_latency(core, addr, /*is_store=*/false);
      const int extra = lat - cfg_.l1d_hit;
      if (extra > 0) {
        shift += extra;
        wr.mem_stall += extra;
      }
      const std::int64_t load_key = src_iter * loop_.num_instrs() + oi.key_base;
      const std::uint64_t loaded = read_memory(addr, load_key, t, wr);
      if constexpr (kValues) acc = mix(acc, loaded);
    } else if (oi.is_store) {
      const std::uint64_t addr = (*oi.addr_fn)(src_iter);
      hier_.access_latency(core, addr, /*is_store=*/true);
      const std::int64_t store_key = src_iter * loop_.num_instrs() + oi.key_base;
      const StoreRec rec{store_key, t, acc, k};
      LocalStore* found = nullptr;
      for (LocalStore& ls : local_stores_) {
        if (ls.addr == addr) {
          found = &ls;
          break;
        }
      }
      if (found == nullptr) {
        local_stores_.push_back(LocalStore{addr, rec});
      } else if (rec.key > found->rec.key) {
        found->rec = rec;
      }
    }

    if constexpr (kValues) {
      values_flat_[slot_at(oi.wall_base, k_mod)] = acc;
      committed_values_[static_cast<std::size_t>(src_iter) *
                            static_cast<std::size_t>(loop_.num_instrs()) +
                        static_cast<std::size_t>(oi.node)] = acc;
    }
    completion_wall_[slot_at(oi.wall_base, k_mod)] = t + oi.latency;
    completion = std::max(completion, t + oi.latency);
  }

  /// Full walk over every kernel op (values mode, and the
  /// prologue/epilogue boundary threads of timing mode).
  template <bool kValues>
  WalkResult walk_ops(std::int64_t k, std::int64_t start, int attempt) {
    WalkResult wr;
    std::int64_t shift = 0;
    std::int64_t completion = start;
    const std::int64_t n = opts_.iterations;
    const int core = core_index(k);
    const std::int64_t k_mod = k % ring_;
    for (const OpInfo& oi : op_info_) {
      const std::int64_t src_iter = k - oi.stage;
      if (src_iter < 0 || src_iter >= n) continue;  // prologue/epilogue guard
      ++wr.instances;
      std::int64_t t = start + oi.row + shift;
      step_op<kValues>(oi, k, k_mod, core, src_iter, attempt, t, shift, completion, wr);
    }
    wr.completion = completion;
    return wr;
  }

  /// Steady-state timing-only walk: every op is active, so pure compute
  /// segments collapse to start + shift + seg_max and only eventful ops
  /// are visited.
  WalkResult walk_steady_timing(std::int64_t k, std::int64_t start, int attempt) {
    WalkResult wr;
    std::int64_t shift = 0;
    std::int64_t completion = start;
    const int core = core_index(k);
    const std::int64_t k_mod = k % ring_;
    for (std::size_t j = 0; j < eventful_.size(); ++j) {
      if (seg_max_[j] >= 0) completion = std::max(completion, start + shift + seg_max_[j]);
      const OpInfo& oi = eventful_[j];
      const std::int64_t src_iter = k - oi.stage;
      std::int64_t t = start + oi.row + shift;
      step_op<false>(oi, k, k_mod, core, src_iter, attempt, t, shift, completion, wr);
    }
    if (seg_max_[eventful_.size()] >= 0) {
      completion = std::max(completion, start + shift + seg_max_[eventful_.size()]);
    }
    wr.instances = static_cast<std::int64_t>(kp_.ops.size());
    wr.completion = completion;
    return wr;
  }

  /// Load semantics + violation detection over the sorted history: the
  /// program-order-latest store to `addr` with key < load_key that had
  /// executed by `t`; any such store with time > t is a violation,
  /// detected when the offending (older) thread completes.
  std::uint64_t read_memory(std::uint64_t addr, std::int64_t load_key, std::int64_t t,
                            WalkResult& wr) {
    // A folded record stands for stores this load must see as older and
    // executed in time; a load past either horizon would make it wrong.
    TMS_ASSERT(t >= fold_time_horizon_ && load_key >= fold_key_horizon_);
    const StoreRec* best = nullptr;
    const int hidx = addr_index_.find(addr);
    if (hidx >= 0) {
      const AddrHist& hist = hists_[static_cast<std::size_t>(hidx)];
      const std::vector<StoreRec>& recs = hist.recs;
      // Committed keys trail the running threads, so a load's key is
      // usually past the whole history: try the tail before paying for
      // a binary search across it.
      std::size_t nb;
      if (recs.back().key < load_key) {
        nb = recs.size();
      } else {
        const auto lb =
            std::lower_bound(recs.begin(), recs.end(), load_key,
                             [](const StoreRec& r, std::int64_t key) { return r.key < key; });
        nb = static_cast<std::size_t>(lb - recs.begin());
      }
      if (nb > 0) {
        if (hist.time_pmax[nb - 1] <= t) {
          best = &recs[nb - 1];  // no candidate executed after t: no violation
        } else {
          for (std::size_t i = 0; i < nb; ++i) {
            const StoreRec& r = recs[i];
            if (r.time > t) {
              if (!wr.violated) {
                wr.violated = true;
                wr.detect_time = kNoDetect;
              }
              wr.detect_time = std::min(
                  wr.detect_time, completion_of_thread_[static_cast<std::size_t>(r.thread)]);
              continue;
            }
            best = &r;  // keys ascend: the last surviving rec is the latest
          }
        }
      }
    }
    for (const LocalStore& ls : local_stores_) {
      if (ls.addr != addr || ls.rec.key >= load_key) continue;
      if (best == nullptr || ls.rec.key > best->key) best = &ls.rec;
    }
    return best != nullptr ? best->value : memory_init_value(addr);
  }

  const ir::Loop& loop_;
  const codegen::KernelProgram& kp_;
  const machine::SpmtConfig& cfg_;
  const SpmtOptions& opts_;
  MemoryHierarchy hier_;
  std::unique_ptr<policy::CorePolicy> pol_;
  bool uniform_ = true;

  std::vector<std::int64_t> rank_;
  std::vector<ir::NodeId> topo_;
  std::int64_t ring_ = 0;
  std::vector<std::uint64_t> values_flat_;
  std::vector<std::int64_t> completion_wall_;
  std::vector<std::int64_t> consume_wall_;
  std::vector<RegIn> reg_in_flat_;
  std::vector<RegIn> mem_in_flat_;
  std::vector<OpInfo> op_info_;   ///< all kernel ops, kernel order
  std::vector<OpInfo> eventful_;  ///< the steady-timing subset, kernel order
  std::vector<std::int64_t> seg_max_;  ///< eventful_.size()+1 entries, -1 = empty

  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  Spawn spawn_;
  std::uint64_t next_seq_ = 0;
  std::vector<Core> cores_;
  std::int64_t clock_ = 0;
  std::int64_t num_threads_ = 0;
  std::int64_t commit_end_prev_ = 0;
  std::int64_t cur_start_ = 0;
  int cur_attempt_ = 0;
  std::int64_t events_processed_ = 0;

  std::vector<std::int64_t> completion_of_thread_;
  AddrIndex addr_index_;
  std::vector<AddrHist> hists_;
  std::vector<LocalStore> local_stores_;
  std::int64_t fold_key_horizon_ = std::numeric_limits<std::int64_t>::min();
  std::int64_t fold_time_horizon_ = std::numeric_limits<std::int64_t>::min();
  std::uint64_t store_records_ = 0;
  std::uint64_t store_records_folded_ = 0;
  std::vector<std::uint64_t> committed_values_;
  std::int64_t spec_wait_cycles_ = 0;
  SpmtResult res_;
};

}  // namespace

SpmtResult run_spmt(const ir::Loop& loop, const codegen::KernelProgram& kp,
                    const machine::SpmtConfig& cfg, const AddressStreams& streams,
                    const SpmtOptions& opts) {
  cfg.check();
  TMS_ASSERT(opts.iterations >= 1);
  TMS_TRACE_SPAN(span, "spmt", "spmt.run");
  EventEngine engine(loop, kp, cfg, streams, opts);
  SpmtResult res = engine.run();
  res.stats.spec_wait_cycles = engine.spec_wait_cycles();
  const auto count = [](std::int64_t v) {
    return static_cast<std::uint64_t>(std::max<std::int64_t>(0, v));
  };
  obs::Counters& c = obs::counters();
  c.sim_runs.add(1);
  c.sim_events.add(count(engine.events_processed()));
  c.sim_store_records.add(engine.store_records());
  c.sim_store_records_folded.add(engine.store_records_folded());
  c.sim_squashes.add(count(res.stats.misspeculations));
  c.sim_sync_stall_cycles.add(count(res.stats.sync_stall_cycles));
  c.sim_mem_stall_cycles.add(count(res.stats.mem_stall_cycles));
  c.sim_squashed_cycles.add(count(res.stats.squashed_cycles));
  c.sim_send_recv_pairs.add(count(res.stats.send_recv_pairs));
  c.sim_bus_transfers.add(count(res.stats.bus_transfers));
  c.sim_bus_cycles.add(count(res.stats.bus_cycles));
  TMS_TRACE_SPAN_ARG(span, obs::targ("iterations", opts.iterations),
                     obs::targ("cycles", res.stats.total_cycles),
                     obs::targ("squashes", res.stats.misspeculations));
  return res;
}

}  // namespace tms::spmt
