// Content-addressed cache of modulo-scheduling results.
//
// Scheduling is the expensive stage of the pipeline (TMS enumerates
// (II, C_delay) pairs, each a full placement attempt), and sweeps keep
// asking for the same triples: fuzz reruns, bench binaries sharing the
// 778-loop suite, tmsbatch invoked over the same directory. The cache
// keys a result by *content*, not identity: a stable 64-bit FNV-1a hash
// of the canonical key string
//
//   tms-schedule-key v1
//   scheduler <sms|ims|tms>
//   machine <issue width, ROB, FU counts, all per-opcode timings>
//   config <every SpmtConfig field>
//   <ir::serialise_loop(loop)>
//
// so any change to the loop body, dependence set, machine description,
// SpmtConfig, or scheduler kind changes the key (that is the whole
// invalidation story — entries are immutable, wrong entries are
// unreachable). A cached entry stores what is needed to reconstruct the
// Schedule exactly: II, per-node slots, and the TMS acceptance
// thresholds (C_delay threshold / P_max) validation re-checks against.
//
// Storage is an in-memory sharded LRU (16 shards, each its own mutex and
// LRU list — lookups from concurrent jobs only contend when they land in
// the same shard) with optional on-disk persistence: one text file per
// entry under `dir/<16-hex-key>.tmscache`, written to a temp file and
// atomically renamed so concurrent writers and readers never see a torn
// entry. Both tiers are bounded so a long-lived process (tmsd) cannot
// grow without limit: the memory tier by entry count (LRU eviction), the
// disk tier by total bytes (least-recently-written files are removed
// after each write until the store fits again). A file is a
// `tmscache v1` banner, a `key <16-hex>` line and the entry's text body
// (append_entry_text, below), which the PEEK hit reply carries too.
// Loads re-verify the embedded key and the slot count against the loop
// being scheduled. A count above the loop's is refused before any slot
// is allocated, and no file longer than the loop could use is read; any
// malformed, truncated, or mismatched file is rejected (counted in
// stats().disk_rejects) and the caller recomputes.
// Semantic corruption — a well-formed entry whose slots violate the
// dependences — is caught one layer up: the batch driver re-validates
// every reconstructed schedule and treats failures as misses.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "ir/loop.hpp"
#include "machine/machine.hpp"
#include "machine/spmt_config.hpp"

namespace tms::driver {

class ScheduleCache {
 public:
  struct Entry {
    std::string scheduler;       ///< "sms", "ims" or "tms"
    int ii = 0;
    int mii = 0;
    int c_delay_threshold = -1;  ///< TMS acceptance threshold; -1 for SMS/IMS
    double p_max = -1.0;         ///< TMS acceptance threshold; -1 for SMS/IMS
    std::vector<int> slots;      ///< slot per node id, normalised
  };

  struct Stats {
    std::uint64_t memory_hits = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t disk_rejects = 0;  ///< corrupt/mismatched on-disk entries
    std::uint64_t disk_evictions = 0;  ///< files removed by the max-bytes bound
    std::uint64_t disk_bytes = 0;      ///< current on-disk store size
    std::uint64_t capacity = 0;        ///< configured in-memory entry bound
    std::uint64_t max_disk_bytes = 0;  ///< configured disk bound; 0 = unbounded

    std::uint64_t hits() const { return memory_hits + disk_hits; }
    double hit_rate() const {
      const std::uint64_t total = hits() + misses;
      return total > 0 ? static_cast<double>(hits()) / static_cast<double>(total) : 0.0;
    }
  };

  /// `capacity` bounds the total in-memory entry count (split evenly
  /// across shards); `disk_dir` enables persistence when non-empty (the
  /// directory is created on first insert). `max_disk_bytes` bounds the
  /// on-disk store: after every write, least-recently-written entry files
  /// are removed until the directory fits (0 = unbounded).
  explicit ScheduleCache(std::size_t capacity = 1 << 16, std::string disk_dir = {},
                         std::uint64_t max_disk_bytes = 0);

  /// The canonical key string hashed by key(); exposed so tests and
  /// docs/DRIVER.md can pin down exactly what invalidates an entry.
  static std::string key_string(const ir::Loop& loop, const machine::MachineModel& mach,
                                const machine::SpmtConfig& cfg, std::string_view scheduler);

  static std::uint64_t key(const ir::Loop& loop, const machine::MachineModel& mach,
                           const machine::SpmtConfig& cfg, std::string_view scheduler);

  /// FNV-1a, 64-bit.
  static std::uint64_t fnv1a(std::string_view s);

  /// The text of the `.tmscache` file holding `entry` under `key`.
  static std::string file_text(std::uint64_t key, const Entry& entry);

  /// The entry that file_text wrote, or nullopt when `text` is malformed,
  /// names another key, or lists other than `expect_instrs` slots.
  static std::optional<Entry> parse_file(std::string_view text, std::uint64_t key,
                                         int expect_instrs);

  /// Memory first, then disk (inserting a disk hit into memory).
  /// `expect_instrs` guards reconstruction: an entry whose slot count
  /// differs (hash collision or stale file) is rejected.
  std::optional<Entry> lookup(std::uint64_t key, int expect_instrs);

  /// Inserts into memory (evicting LRU entries past capacity) and, when
  /// persistence is enabled, writes the entry to disk atomically.
  void insert(std::uint64_t key, const Entry& entry);

  Stats stats() const;

  const std::string& disk_dir() const { return dir_; }

 private:
  static constexpr std::size_t kShards = 16;

  struct Shard {
    std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<std::uint64_t, Entry>> lru;
    std::unordered_map<std::uint64_t, std::list<std::pair<std::uint64_t, Entry>>::iterator> map;
  };

  Shard& shard(std::uint64_t key) { return shards_[key % kShards]; }
  std::string entry_path(std::uint64_t key) const;
  std::optional<Entry> load_from_disk(std::uint64_t key, int expect_instrs);
  void store_to_disk(std::uint64_t key, const Entry& entry);
  void insert_locked(Shard& s, std::uint64_t key, const Entry& entry);
  /// Removes least-recently-written entry files until the store fits the
  /// byte bound again, sparing `keep` (the file just written).
  void enforce_disk_bound(const std::string& keep);

  std::size_t capacity_;
  std::size_t shard_capacity_;
  std::string dir_;
  std::uint64_t max_disk_bytes_;
  std::array<Shard, kShards> shards_;
  std::mutex disk_mu_;  ///< serialises disk-bound accounting and eviction

  mutable std::atomic<std::uint64_t> memory_hits_{0};
  mutable std::atomic<std::uint64_t> disk_hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  mutable std::atomic<std::uint64_t> inserts_{0};
  mutable std::atomic<std::uint64_t> evictions_{0};
  mutable std::atomic<std::uint64_t> disk_rejects_{0};
  mutable std::atomic<std::uint64_t> disk_evictions_{0};
  mutable std::atomic<std::uint64_t> disk_bytes_{0};
  std::atomic<std::uint64_t> tmp_counter_{0};
};

/// Appends the text body of `e`, the lines the `.tmscache` file and the
/// PEEK hit reply both carry behind their own header lines:
///
///   scheduler <name>
///   ii <int>
///   mii <int>
///   c_delay_threshold <int>
///   p_max <%.17g>
///   slots <count> <slot>...
///   end
void append_entry_text(std::string& out, const ScheduleCache::Entry& e);

/// Reads a body append_entry_text wrote, in any line order, through its
/// `end` line; what follows `end` is not read. Returns a one-line error
/// unless every line parses and the entry is complete: a scheduler,
/// ii > 0, and between 1 and `max_slots` slots, a bound checked before
/// any slot is allocated.
std::variant<ScheduleCache::Entry, std::string> parse_entry_text(std::string_view text,
                                                                 std::size_t max_slots);

}  // namespace tms::driver
