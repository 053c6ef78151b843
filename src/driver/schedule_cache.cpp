#include "driver/schedule_cache.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "ir/opcode.hpp"
#include "ir/textio.hpp"
#include "obs/counters.hpp"
#include "support/line_codec.hpp"

namespace tms::driver {

namespace {

/// Every opcode MachineModel carries a timing for, in enum order. The
/// timing table is part of the cache key: retuning a latency must
/// invalidate every schedule computed under the old machine.
constexpr ir::Opcode kAllOpcodes[] = {
    ir::Opcode::kIAdd, ir::Opcode::kISub,  ir::Opcode::kIMul,  ir::Opcode::kShift,
    ir::Opcode::kLogic, ir::Opcode::kCmp,  ir::Opcode::kCMov,  ir::Opcode::kFAdd,
    ir::Opcode::kFSub, ir::Opcode::kFMul,  ir::Opcode::kFDiv,  ir::Opcode::kFSqrt,
    ir::Opcode::kFCmp, ir::Opcode::kFCvt,  ir::Opcode::kLoad,  ir::Opcode::kStore,
    ir::Opcode::kLea,  ir::Opcode::kCopy,  ir::Opcode::kSend,  ir::Opcode::kRecv,
    ir::Opcode::kSpawn, ir::Opcode::kNop,
};

void append_machine(std::string& out, const machine::MachineModel& m) {
  out += "machine issue ";
  out += std::to_string(m.issue_width());
  out += " rob ";
  out += std::to_string(m.rob_entries());
  out += " fu";
  for (int c = 0; c < ir::kNumFuClasses; ++c) {
    out += ' ';
    out += std::to_string(m.fu_count(static_cast<ir::FuClass>(c)));
  }
  out += " timing";
  for (const ir::Opcode op : kAllOpcodes) {
    const machine::OpTiming& t = m.timing(op);
    out += ' ';
    out += std::to_string(t.latency);
    out += '/';
    out += std::to_string(t.occupancy);
  }
  out += '\n';
}

void append_config(std::string& out, const machine::SpmtConfig& c) {
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "config ncore %d c_spn %d c_ci %d c_inv %d c_reg_com %d send %d hop %d recv %d "
                "l1i %d l1d %d l2 %d mem %d l1d_geom %d/%d l2_geom %d/%d line %d wb %d mdt %d "
                "ringq %d\n",
                c.ncore, c.c_spn, c.c_ci, c.c_inv, c.c_reg_com, c.send_cycles, c.hop_cycles,
                c.recv_cycles, c.l1i_hit, c.l1d_hit, c.l2_hit, c.l2_miss, c.l1d_sets, c.l1d_ways,
                c.l2_sets, c.l2_ways, c.line_bytes, c.spec_write_buffer_entries, c.mdt_entries,
                c.ring_queue_entries);
  out += buf;
  // Policy and bus terms are appended only when non-default so every key
  // minted before the policy subsystem existed stays byte-identical.
  if (c.policy != machine::AllocPolicy::kModulo || c.policy_stride != 1 || c.policy_block != 1) {
    std::snprintf(buf, sizeof buf, "policy %d stride %d block %d\n", static_cast<int>(c.policy),
                  c.policy_stride, c.policy_block);
    out += buf;
  }
  if (c.bus_bytes_per_transfer != 0 || c.bus_bytes_per_cycle != 16) {
    std::snprintf(buf, sizeof buf, "bus %d/%d\n", c.bus_bytes_per_transfer,
                  c.bus_bytes_per_cycle);
    out += buf;
  }
}

constexpr std::string_view kFileBanner = "tmscache v1";

}  // namespace

void append_entry_text(std::string& out, const ScheduleCache::Entry& e) {
  support::append_kv(out, "scheduler", e.scheduler);
  support::append_kv(out, "ii", e.ii);
  support::append_kv(out, "mii", e.mii);
  support::append_kv(out, "c_delay_threshold", e.c_delay_threshold);
  support::append_kv(out, "p_max", e.p_max);
  support::append_kv(out, "slots", e.slots);
  out += "end\n";
}

std::variant<ScheduleCache::Entry, std::string> parse_entry_text(std::string_view text,
                                                                 std::size_t max_slots) {
  ScheduleCache::Entry e;
  bool have_end = false;
  std::string_view line;
  while (support::next_line(text, line)) {
    if (line == "end") {
      have_end = true;
      break;
    }
    const auto [key, value] = support::split_kv(line);
    bool ok = true;
    if (key == "scheduler") {
      ok = !value.empty();
      e.scheduler = std::string(value);
    } else if (key == "ii") {
      ok = support::parse_int(value, e.ii);
    } else if (key == "mii") {
      ok = support::parse_int(value, e.mii);
    } else if (key == "c_delay_threshold") {
      ok = support::parse_int(value, e.c_delay_threshold);
    } else if (key == "p_max") {
      ok = support::parse_double(value, e.p_max);
    } else if (key == "slots") {
      ok = support::parse_slots(value, max_slots, e.slots);
    } else {
      return "unknown entry field '" + std::string(key) + "'";
    }
    if (!ok) return "bad " + std::string(key);
  }
  if (!have_end) return std::string("truncated entry");
  if (e.scheduler.empty() || e.ii <= 0 || e.slots.empty()) return std::string("incomplete entry");
  return e;
}

ScheduleCache::ScheduleCache(std::size_t capacity, std::string disk_dir,
                             std::uint64_t max_disk_bytes)
    : capacity_(capacity),
      shard_capacity_(std::max<std::size_t>(1, capacity / kShards)),
      dir_(std::move(disk_dir)),
      max_disk_bytes_(max_disk_bytes) {
  if (dir_.empty()) return;
  // Seed the byte accounting from whatever a previous process left
  // behind, so the bound holds across restarts, not just within one run.
  namespace fs = std::filesystem;
  std::error_code ec;
  std::uint64_t bytes = 0;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (e.is_regular_file(ec) && e.path().extension() == ".tmscache") {
      bytes += static_cast<std::uint64_t>(e.file_size(ec));
    }
  }
  disk_bytes_.store(bytes, std::memory_order_relaxed);
  if (max_disk_bytes_ > 0 && bytes > max_disk_bytes_) enforce_disk_bound({});
}

std::string ScheduleCache::key_string(const ir::Loop& loop, const machine::MachineModel& mach,
                                      const machine::SpmtConfig& cfg,
                                      std::string_view scheduler) {
  std::string out = "tms-schedule-key v1\nscheduler ";
  out += scheduler;
  out += '\n';
  append_machine(out, mach);
  append_config(out, cfg);
  out += ir::serialise_loop(loop);
  return out;
}

std::uint64_t ScheduleCache::key(const ir::Loop& loop, const machine::MachineModel& mach,
                                 const machine::SpmtConfig& cfg, std::string_view scheduler) {
  return fnv1a(key_string(loop, mach, cfg, scheduler));
}

std::uint64_t ScheduleCache::fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string ScheduleCache::file_text(std::uint64_t key, const Entry& entry) {
  std::string out(kFileBanner);
  out += '\n';
  support::append_kv(out, "key", support::hex16(key));
  append_entry_text(out, entry);
  return out;
}

std::optional<ScheduleCache::Entry> ScheduleCache::parse_file(std::string_view text,
                                                              std::uint64_t key,
                                                              int expect_instrs) {
  std::string_view line;
  if (!support::next_line(text, line) || line != kFileBanner) return std::nullopt;
  if (!support::next_line(text, line)) return std::nullopt;
  const support::KeyValue kv = support::split_kv(line);
  std::uint64_t file_key = 0;
  if (kv.key != "key" || !support::parse_hex16(kv.value, file_key) || file_key != key) {
    return std::nullopt;
  }
  auto parsed = parse_entry_text(text, static_cast<std::size_t>(std::max(0, expect_instrs)));
  auto* e = std::get_if<Entry>(&parsed);
  if (e == nullptr || static_cast<int>(e->slots.size()) != expect_instrs) return std::nullopt;
  return std::move(*e);
}

std::optional<ScheduleCache::Entry> ScheduleCache::lookup(std::uint64_t key, int expect_instrs) {
  Shard& s = shard(key);
  {
    const std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.map.find(key);
    if (it != s.map.end()) {
      if (static_cast<int>(it->second->second.slots.size()) == expect_instrs) {
        s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch
        memory_hits_.fetch_add(1, std::memory_order_relaxed);
        return it->second->second;
      }
      // 64-bit collision between different loops: treat as a miss, do
      // not disturb the resident entry.
    }
  }
  if (!dir_.empty()) {
    if (auto e = load_from_disk(key, expect_instrs)) {
      Shard& sh = shard(key);
      const std::lock_guard<std::mutex> lock(sh.mu);
      insert_locked(sh, key, *e);
      disk_hits_.fetch_add(1, std::memory_order_relaxed);
      return e;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

void ScheduleCache::insert_locked(Shard& s, std::uint64_t key, const Entry& entry) {
  const auto it = s.map.find(key);
  if (it != s.map.end()) {
    it->second->second = entry;
    s.lru.splice(s.lru.begin(), s.lru, it->second);
    return;
  }
  s.lru.emplace_front(key, entry);
  s.map.emplace(key, s.lru.begin());
  while (s.lru.size() > shard_capacity_) {
    s.map.erase(s.lru.back().first);
    s.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::counters().driver_cache_evictions_mem.add(1);
  }
}

void ScheduleCache::insert(std::uint64_t key, const Entry& entry) {
  {
    Shard& s = shard(key);
    const std::lock_guard<std::mutex> lock(s.mu);
    insert_locked(s, key, entry);
  }
  inserts_.fetch_add(1, std::memory_order_relaxed);
  if (!dir_.empty()) store_to_disk(key, entry);
}

std::string ScheduleCache::entry_path(std::uint64_t key) const {
  return dir_ + "/" + support::hex16(key) + ".tmscache";
}

std::optional<ScheduleCache::Entry> ScheduleCache::load_from_disk(std::uint64_t key,
                                                                  int expect_instrs) {
  std::ifstream in(entry_path(key), std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;  // absent: a plain miss, not a reject

  // The buffer is sized from the file opened, never from the caller's
  // count. The fixed lines take under 4 KiB and a slot at most 12 bytes,
  // so a file longer than that is refused unread.
  const std::streamoff size = in.tellg();
  const std::size_t limit = 4096 + 12 * static_cast<std::size_t>(std::max(0, expect_instrs));
  std::optional<Entry> e;
  if (size >= 0 && static_cast<std::uint64_t>(size) <= limit) {
    std::string text(static_cast<std::size_t>(size), '\0');
    in.seekg(0);
    if (in.read(text.data(), size)) e = parse_file(text, key, expect_instrs);
  }
  if (!e.has_value()) disk_rejects_.fetch_add(1, std::memory_order_relaxed);
  return e;
}

void ScheduleCache::store_to_disk(std::uint64_t key, const Entry& entry) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec) return;  // persistence is best-effort; memory cache still works

  const std::string path = entry_path(key);
  const std::string tmp = path + ".tmp" +
                          std::to_string(tmp_counter_.fetch_add(1, std::memory_order_relaxed));
  {
    std::ofstream out(tmp);
    if (!out) return;
    out << file_text(key, entry);
    if (!out) {
      out.close();
      fs::remove(tmp, ec);
      return;
    }
  }
  // Atomic publish: readers either see the old complete file or the new
  // complete file, never a partial write. Last concurrent writer wins.
  // Byte accounting and the rename happen under disk_mu_ so the replaced
  // file's size is subtracted exactly once even with concurrent writers.
  {
    const std::lock_guard<std::mutex> lock(disk_mu_);
    const auto old_size = fs::file_size(path, ec);
    const std::uint64_t replaced = ec ? 0 : static_cast<std::uint64_t>(old_size);
    ec.clear();
    const auto new_size = fs::file_size(tmp, ec);
    const std::uint64_t written = ec ? 0 : static_cast<std::uint64_t>(new_size);
    ec.clear();
    fs::rename(tmp, path, ec);
    if (ec) {
      fs::remove(tmp, ec);
      return;
    }
    disk_bytes_.fetch_add(written, std::memory_order_relaxed);
    disk_bytes_.fetch_sub(std::min(replaced, disk_bytes_.load(std::memory_order_relaxed)),
                          std::memory_order_relaxed);
  }
  if (max_disk_bytes_ > 0 && disk_bytes_.load(std::memory_order_relaxed) > max_disk_bytes_) {
    enforce_disk_bound(path);
  }
}

void ScheduleCache::enforce_disk_bound(const std::string& keep) {
  namespace fs = std::filesystem;
  const std::lock_guard<std::mutex> lock(disk_mu_);
  if (disk_bytes_.load(std::memory_order_relaxed) <= max_disk_bytes_) return;

  struct File {
    fs::path path;
    fs::file_time_type mtime;
    std::uint64_t size = 0;
  };
  std::error_code ec;
  std::vector<File> files;
  for (const auto& e : fs::directory_iterator(dir_, ec)) {
    if (!e.is_regular_file(ec) || e.path().extension() != ".tmscache") continue;
    if (!keep.empty() && e.path() == fs::path(keep)) continue;
    File f;
    f.path = e.path();
    f.mtime = e.last_write_time(ec);
    f.size = static_cast<std::uint64_t>(e.file_size(ec));
    files.push_back(std::move(f));
  }
  // Oldest write first — the disk analogue of LRU under write-through
  // (every insert rewrites its file, refreshing the mtime).
  std::sort(files.begin(), files.end(),
            [](const File& a, const File& b) { return a.mtime < b.mtime; });
  for (const File& f : files) {
    if (disk_bytes_.load(std::memory_order_relaxed) <= max_disk_bytes_) break;
    fs::remove(f.path, ec);
    if (ec) continue;
    disk_bytes_.fetch_sub(std::min(f.size, disk_bytes_.load(std::memory_order_relaxed)),
                          std::memory_order_relaxed);
    disk_evictions_.fetch_add(1, std::memory_order_relaxed);
    obs::counters().driver_cache_evictions_disk.add(1);
  }
}

ScheduleCache::Stats ScheduleCache::stats() const {
  Stats s;
  s.memory_hits = memory_hits_.load(std::memory_order_relaxed);
  s.disk_hits = disk_hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.inserts = inserts_.load(std::memory_order_relaxed);
  s.evictions = evictions_.load(std::memory_order_relaxed);
  s.disk_rejects = disk_rejects_.load(std::memory_order_relaxed);
  s.disk_evictions = disk_evictions_.load(std::memory_order_relaxed);
  s.disk_bytes = disk_bytes_.load(std::memory_order_relaxed);
  s.capacity = capacity_;
  s.max_disk_bytes = max_disk_bytes_;
  return s;
}

}  // namespace tms::driver
