// The legacy SpMT stepper: the simulator's original engine, kept as the
// event engine's differential reference (docs/SIMULATOR.md). It walks
// the threads sequentially in commit order, visits every kernel op of
// every thread, and scans each address's store history linearly per
// load — slow, but simple enough to read against Section 3. It keeps
// every committed store, so it also checks the event engine's history
// folding. Only event_sim_test compiles it.
#include "legacy_stepper.hpp"

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "ir/graph.hpp"
#include "policy/policy.hpp"
#include "spmt/cache.hpp"
#include "spmt/values.hpp"
#include "support/assert.hpp"

namespace tms::test {
using namespace spmt;

namespace {

/// One recorded store, for forwarding and violation detection. `key` is
/// the program-order position (src_iter * n + topo_rank).
struct StoreRec {
  std::int64_t key = 0;
  std::int64_t time = 0;
  std::uint64_t value = 0;
  std::int64_t thread = 0;
};

struct WalkResult {
  std::int64_t completion = 0;
  std::int64_t sync_stall = 0;
  std::int64_t mem_stall = 0;
  std::int64_t send_block = 0;
  std::int64_t bus_transfers = 0;  ///< not attempt-gated: final walk only is committed
  std::int64_t instances = 0;
  bool violated = false;
  std::int64_t detect_time = 0;  ///< completion of the oldest violating thread
};

constexpr std::int64_t kNoDetect = std::numeric_limits<std::int64_t>::max();

class Engine {
 public:
  Engine(const ir::Loop& loop, const codegen::KernelProgram& kp, const machine::SpmtConfig& cfg,
         const AddressStreams& streams, const SpmtOptions& opts)
      : loop_(loop), kp_(kp), cfg_(cfg), streams_(streams), opts_(opts), hier_(cfg, cfg.ncore),
        pol_(policy::make_policy(cfg, loop)) {
    // Program-order rank within an iteration (reference interpreter order).
    const std::vector<ir::NodeId> topo = ir::topo_order_intra(loop);
    rank_.assign(static_cast<std::size_t>(loop.num_instrs()), 0);
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
    ring_ = static_cast<std::size_t>(std::max(max_dker, cfg.ring_queue_entries) + 2);
    values_.assign(static_cast<std::size_t>(loop.num_instrs()),
                   std::vector<std::uint64_t>(ring_, 0));
    completion_wall_.assign(static_cast<std::size_t>(loop.num_instrs()),
                            std::vector<std::int64_t>(ring_, 0));
    consume_wall_.assign(static_cast<std::size_t>(loop.num_instrs()),
                         std::vector<std::int64_t>(ring_, 0));

    // Channel producers and the first-hop kernel distance of each (the
    // ring-queue entry is freed when the adjacent core consumes).
    first_hop_.assign(static_cast<std::size_t>(loop.num_instrs()), 0);
    for (const auto& in : kp.inputs) {
      int& hop = first_hop_[static_cast<std::size_t>(in.producer)];
      hop = (hop == 0) ? in.d_ker : std::min(hop, in.d_ker);
    }

    // Per-consumer-node index of cross-thread register inputs.
    reg_inputs_of_.assign(static_cast<std::size_t>(loop.num_instrs()), {});
    for (std::size_t i = 0; i < kp.inputs.size(); ++i) {
      reg_inputs_of_[static_cast<std::size_t>(kp.inputs[i].consumer)].push_back(i);
    }
    mem_inputs_of_.assign(static_cast<std::size_t>(loop.num_instrs()), {});
    for (std::size_t i = 0; i < kp.mem_inputs.size(); ++i) {
      mem_inputs_of_[static_cast<std::size_t>(kp.mem_inputs[i].consumer)].push_back(i);
    }
    stage_.assign(static_cast<std::size_t>(loop.num_instrs()), 0);
    for (const codegen::KernelOp& op : kp.ops) {
      stage_[static_cast<std::size_t>(op.node)] = op.stage;
    }
  }

  SpmtResult run() {
    const std::int64_t n = opts_.iterations;
    const std::int64_t num_threads = n + kp_.stage_count - 1;
    completion_of_thread_.assign(static_cast<std::size_t>(num_threads), 0);

    // Live-in broadcast: the loop's live-in registers are copied to every
    // participating core once, hop by hop around the ring.
    const std::int64_t startup = cfg_.c_reg_com + (cfg_.ncore - 1) * cfg_.hop_cycles;
    std::vector<std::int64_t> free_at(static_cast<std::size_t>(cfg_.ncore), startup);
    std::int64_t prev_start = startup - cfg_.c_spn;  // so thread 0 starts at `startup`
    std::int64_t commit_end_prev = startup;

    if (opts_.keep_memory) {
      committed_values_.assign(
          static_cast<std::size_t>(n) * static_cast<std::size_t>(loop_.num_instrs()), 0);
    }

    SpmtResult res;
    for (std::int64_t k = 0; k < num_threads; ++k) {
      const int core = pol_->core_of(k);
      std::int64_t start =
          std::max(prev_start + cfg_.c_spn, free_at[static_cast<std::size_t>(core)]);
      if (kp_.stores_per_iter > cfg_.spec_write_buffer_entries) {
        // The speculation write buffer cannot hold the thread's stores:
        // the thread must run non-speculatively (as head).
        start = std::max(start, commit_end_prev);
        ++res.stats.wb_overflow_waits;
      }

      WalkResult wr;
      int attempt = 0;
      for (;;) {
        local_stores_.clear();
        wr = walk_thread(k, start, attempt);
        if (!wr.violated) break;
        ++res.stats.misspeculations;
        // The squashed execution plus the gang-invalidation are wasted.
        res.stats.squashed_cycles += (wr.completion - start) + cfg_.c_inv;
        ++attempt;
        if (attempt > opts_.max_reexecutions) {
          // Degenerate aliasing: run as head thread; no older store can
          // then be outstanding.
          start = std::max(start, commit_end_prev);
        } else {
          start = std::max(start, wr.detect_time + cfg_.c_inv);
        }
      }

      // Commit: sequential, one thread at a time, C_ci each (the drain
      // into L2 overlaps with the next thread thanks to double buffering).
      const std::int64_t commit_end = std::max(wr.completion, commit_end_prev) + cfg_.c_ci;
      completion_of_thread_[static_cast<std::size_t>(k)] = wr.completion;
      free_at[static_cast<std::size_t>(core)] = commit_end;
      commit_end_prev = commit_end;
      prev_start = start;

      // Merge the thread's (now committed) stores into the global image.
      for (const auto& [addr, rec] : local_stores_) {
        store_hist_[addr].push_back(rec);
      }

      ++res.stats.threads_committed;
      res.stats.instances_executed += wr.instances;
      res.stats.sync_stall_cycles += wr.sync_stall;
      res.stats.mem_stall_cycles += wr.mem_stall;
      res.stats.send_block_cycles += wr.send_block;
      res.stats.bus_transfers += wr.bus_transfers;
      if (k >= kp_.stage_count - 1 && k < n) {
        res.stats.send_recv_pairs += kp_.comm_pairs_per_iter;
      }
      res.stats.total_cycles = commit_end;
      if (opts_.collect_trace) {
        ThreadTrace tt;
        tt.thread = k;
        tt.core = core;
        tt.start = start;
        tt.completion = wr.completion;
        tt.commit_end = commit_end;
        tt.attempts = attempt + 1;
        tt.sync_stall = wr.sync_stall;
        tt.mem_stall = wr.mem_stall;
        res.trace.push_back(tt);
      }
    }

    res.stats.bus_cycles = res.stats.bus_transfers * cfg_.bus_transfer_cycles();
    res.stats.l2_hits = hier_.l2_hits();
    res.stats.l2_misses = hier_.l2_misses();
    for (int c = 0; c < cfg_.ncore; ++c) {
      res.stats.l1_hits += hier_.l1_hits(c);
      res.stats.l1_misses += hier_.l1_misses(c);
    }

    if (opts_.keep_memory) {
      for (const auto& [addr, hist] : store_hist_) {
        const StoreRec* best = nullptr;
        for (const StoreRec& r : hist) {
          if (best == nullptr || r.key > best->key) best = &r;
        }
        if (best != nullptr) res.memory[addr] = best->value;
      }
      // Fingerprint in reference order: (iteration, topo rank).
      for (std::int64_t i = 0; i < n; ++i) {
        for (const ir::NodeId v : topo_) {
          res.value_fingerprint =
              mix(res.value_fingerprint,
                  committed_values_[static_cast<std::size_t>(i) *
                                        static_cast<std::size_t>(loop_.num_instrs()) +
                                    static_cast<std::size_t>(v)]);
        }
      }
    }
    return res;
  }

 private:
  std::int64_t prog_key(std::int64_t src_iter, ir::NodeId v) const {
    return src_iter * loop_.num_instrs() + rank_[static_cast<std::size_t>(v)];
  }

  WalkResult walk_thread(std::int64_t k, std::int64_t start, int attempt) {
    WalkResult wr;
    const int core = pol_->core_of(k);
    std::int64_t shift = 0;
    std::int64_t completion = start;
    const std::int64_t n = opts_.iterations;

    for (const codegen::KernelOp& op : kp_.ops) {
      const std::int64_t src_iter = k - op.stage;
      if (src_iter < 0 || src_iter >= n) continue;  // prologue/epilogue guard
      ++wr.instances;
      std::int64_t t = start + op.row + shift;

      // Cross-thread register inputs: wait for the ring delivery.
      for (const std::size_t ii : reg_inputs_of_[static_cast<std::size_t>(op.node)]) {
        const codegen::CrossThreadInput& in = kp_.inputs[ii];
        const std::int64_t pk = k - in.d_ker;
        if (pk < 0) continue;  // producer instance predates the loop: live-in
        const std::int64_t src_of_producer = pk - stage_of(in.producer);
        if (src_of_producer < 0 || src_of_producer >= n) continue;
        const policy::CommCost cost = pol_->comm_cost(in.d_ker, k);
        wr.bus_transfers += cost.transfers;
        const std::int64_t avail =
            completion_wall_[static_cast<std::size_t>(in.producer)]
                            [static_cast<std::size_t>(pk % static_cast<std::int64_t>(ring_))] +
            cost.delay;
        if (avail > t) {
          const std::int64_t stall = avail - t;
          shift += stall;
          t = avail;
          if (attempt == 0) wr.sync_stall += stall;
        }
        // First-hop RECV frees the producer's ring-queue entry.
        if (in.d_ker == first_hop_[static_cast<std::size_t>(in.producer)]) {
          consume_wall_[static_cast<std::size_t>(in.producer)]
                       [static_cast<std::size_t>(pk % static_cast<std::int64_t>(ring_))] = t;
        }
      }

      // Ring-queue backpressure (Voltron queue model): a producer's SEND
      // blocks until the receiver has drained the value sent Q instances
      // ago. Only meaningful when the first hop has already been
      // simulated (chained hops with deeper kernel distances are freed
      // by their copy stages).
      if (first_hop_[static_cast<std::size_t>(op.node)] > 0 &&
          first_hop_[static_cast<std::size_t>(op.node)] < cfg_.ring_queue_entries) {
        const std::int64_t freed_k = k - cfg_.ring_queue_entries;
        if (freed_k >= 0) {
          const std::int64_t freed =
              consume_wall_[static_cast<std::size_t>(op.node)]
                           [static_cast<std::size_t>(freed_k % static_cast<std::int64_t>(ring_))];
          const std::int64_t send_at = t + op.latency;
          if (send_at < freed) {
            const std::int64_t stall = freed - send_at;
            shift += stall;
            t += stall;
            if (attempt == 0) wr.send_block += stall;
          }
        }
      }

      // Synchronised memory dependences (speculation disabled).
      if (opts_.disable_speculation && op.is_load) {
        for (const std::size_t mi : mem_inputs_of_[static_cast<std::size_t>(op.node)]) {
          const codegen::CrossThreadInput& in = kp_.mem_inputs[mi];
          const std::int64_t pk = k - in.d_ker;
          if (pk < 0) continue;
          const std::int64_t src_of_producer = pk - stage_of(in.producer);
          if (src_of_producer < 0 || src_of_producer >= n) continue;
          const policy::CommCost cost = pol_->comm_cost(in.d_ker, k);
          wr.bus_transfers += cost.transfers;
          const std::int64_t avail =
              completion_wall_[static_cast<std::size_t>(in.producer)]
                              [static_cast<std::size_t>(pk % static_cast<std::int64_t>(ring_))] +
              cost.delay;
          if (avail > t) {
            const std::int64_t stall = avail - t;
            shift += stall;
            t = avail;
            if (attempt == 0) spec_wait_cycles_ += stall;
          }
        }
      }

      // Operand values, folded exactly like the reference interpreter.
      std::uint64_t acc = node_seed(op.node, loop_.instr(op.node).op);
      for (const codegen::OperandRef& o : kp_.reg_operands[static_cast<std::size_t>(op.node)]) {
        const std::int64_t si = src_iter - o.distance;
        std::uint64_t operand;
        if (si < 0) {
          operand = live_in_value(o.src);
        } else {
          const std::int64_t pk = k - o.d_ker;
          operand = values_[static_cast<std::size_t>(o.src)]
                           [static_cast<std::size_t>(pk % static_cast<std::int64_t>(ring_))];
        }
        acc = mix(acc, operand);
      }

      if (op.is_load) {
        const std::uint64_t addr = streams_.address(op.node, src_iter);
        const int lat = hier_.access_latency(core, addr, /*is_store=*/false);
        const int extra = lat - cfg_.l1d_hit;
        if (extra > 0) {
          shift += extra;
          wr.mem_stall += extra;
        }
        const std::int64_t load_key = prog_key(src_iter, op.node);
        acc = mix(acc, read_memory(addr, load_key, t, k, wr));
      } else if (op.is_store) {
        const std::uint64_t addr = streams_.address(op.node, src_iter);
        hier_.access_latency(core, addr, /*is_store=*/true);
        const std::int64_t store_key = prog_key(src_iter, op.node);
        // The store's value is forwardable from the speculation write
        // buffer as soon as it issues (same-cycle forwarding), which is
        // what makes zero-delay speculated dependences sound for
        // same-thread consumers.
        StoreRec rec{store_key, t, acc, k};
        auto [it, inserted] = local_stores_.try_emplace(addr, rec);
        if (!inserted && rec.key > it->second.key) it->second = rec;
      }

      values_[static_cast<std::size_t>(op.node)]
             [static_cast<std::size_t>(k % static_cast<std::int64_t>(ring_))] = acc;
      completion_wall_[static_cast<std::size_t>(op.node)]
                      [static_cast<std::size_t>(k % static_cast<std::int64_t>(ring_))] =
          t + op.latency;
      if (opts_.keep_memory) {
        committed_values_[static_cast<std::size_t>(src_iter) *
                              static_cast<std::size_t>(loop_.num_instrs()) +
                          static_cast<std::size_t>(op.node)] = acc;
      }
      completion = std::max(completion, t + op.latency);
    }
    wr.completion = completion;
    return wr;
  }

  /// Load semantics: the program-order-latest store to `addr` whose value
  /// was produced before `t` (forwarding from older threads' buffers or
  /// the local buffer), else the initial memory value. Flags a violation
  /// if a program-order-earlier store exists that had not yet executed.
  std::uint64_t read_memory(std::uint64_t addr, std::int64_t load_key, std::int64_t t,
                            std::int64_t thread, WalkResult& wr) {
    const StoreRec* best = nullptr;
    const auto it = store_hist_.find(addr);
    if (it != store_hist_.end()) {
      for (const StoreRec& r : it->second) {
        if (r.key >= load_key) continue;  // program-order after the load
        if (r.time > t) {
          // The load would miss this store: misspeculation. Detected when
          // the offending (older) thread completes.
          if (!wr.violated) {
            wr.violated = true;
            wr.detect_time = kNoDetect;
          }
          wr.detect_time = std::min(
              wr.detect_time, completion_of_thread_[static_cast<std::size_t>(r.thread)]);
          continue;
        }
        if (best == nullptr || r.key > best->key) best = &r;
      }
    }
    const auto lit = local_stores_.find(addr);
    if (lit != local_stores_.end() && lit->second.key < load_key) {
      if (best == nullptr || lit->second.key > best->key) best = &lit->second;
    }
    (void)thread;
    return best != nullptr ? best->value : memory_init_value(addr);
  }

  int stage_of(ir::NodeId v) const { return stage_[static_cast<std::size_t>(v)]; }

  const ir::Loop& loop_;
  const codegen::KernelProgram& kp_;
  const machine::SpmtConfig& cfg_;
  const AddressStreams& streams_;
  const SpmtOptions& opts_;
  MemoryHierarchy hier_;
  std::unique_ptr<policy::CorePolicy> pol_;

  std::vector<std::int64_t> rank_;
  std::vector<int> stage_;
  std::vector<ir::NodeId> topo_;
  std::size_t ring_ = 0;
  std::vector<std::vector<std::uint64_t>> values_;
  std::vector<std::vector<std::int64_t>> completion_wall_;
  std::vector<std::vector<std::int64_t>> consume_wall_;
  std::vector<int> first_hop_;
  std::vector<std::vector<std::size_t>> reg_inputs_of_;
  std::vector<std::vector<std::size_t>> mem_inputs_of_;
  std::vector<std::int64_t> completion_of_thread_;
  std::unordered_map<std::uint64_t, std::vector<StoreRec>> store_hist_;
  std::unordered_map<std::uint64_t, StoreRec> local_stores_;
  std::vector<std::uint64_t> committed_values_;
  std::int64_t spec_wait_cycles_ = 0;

 public:
  std::int64_t spec_wait_cycles() const { return spec_wait_cycles_; }
};

}  // namespace

SpmtResult run_legacy_stepper(const ir::Loop& loop, const codegen::KernelProgram& kp,
                              const machine::SpmtConfig& cfg, const AddressStreams& streams,
                              const SpmtOptions& opts) {
  cfg.check();
  TMS_ASSERT(opts.iterations >= 1);
  Engine engine(loop, kp, cfg, streams, opts);
  SpmtResult res = engine.run();
  res.stats.spec_wait_cycles = engine.spec_wait_cycles();
  return res;
}

}  // namespace tms::test
