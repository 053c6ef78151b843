#include "obs/flight.hpp"

#include <algorithm>
#include <cstring>

#include "obs/counters.hpp"
#include "support/json.hpp"
#include "support/line_codec.hpp"

namespace tms::obs {

void flight_copy(char* dst, std::size_t dst_size, std::string_view s) {
  const std::size_t n = std::min(s.size(), dst_size - 1);
  std::memcpy(dst, s.data(), n);
  dst[n] = '\0';
}

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), slots_(new Slot[capacity_]) {}

void FlightRecorder::record(FlightRecord r) {
  r.seq = next_seq_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[r.seq % capacity_];
  // Claim empty-or-full -> busy. Losing the claim means a concurrent
  // writer (capacity lapped within one in-flight write) or a reader
  // holds the slot; dropping is the lock-free answer, waiting is not.
  std::uint32_t expect = slot.state.load(std::memory_order_relaxed);
  if (expect == kBusy ||
      !slot.state.compare_exchange_strong(expect, kBusy, std::memory_order_acquire,
                                          std::memory_order_relaxed)) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    counters().serve_flight_drops.add(1);
    return;
  }
  slot.rec = r;
  slot.state.store(kFull, std::memory_order_release);
  recorded_.fetch_add(1, std::memory_order_relaxed);
  counters().serve_flight_records.add(1);
}

std::vector<FlightRecord> FlightRecorder::snapshot() const {
  std::vector<FlightRecord> out;
  out.reserve(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    Slot& slot = slots_[i];
    std::uint32_t expect = kFull;
    if (!slot.state.compare_exchange_strong(expect, kBusy, std::memory_order_acquire,
                                            std::memory_order_relaxed)) {
      continue;  // empty, or a writer is mid-copy — skip, never wait
    }
    out.push_back(slot.rec);
    slot.state.store(kFull, std::memory_order_release);
  }
  std::sort(out.begin(), out.end(),
            [](const FlightRecord& a, const FlightRecord& b) { return a.seq < b.seq; });
  return out;
}

std::string flight_to_json(const FlightRecorder& recorder) {
  const std::vector<FlightRecord> records = recorder.snapshot();
  support::JsonWriter w;
  w.begin_object();
  w.member("schema", "tmsd-flight-v1");
  w.member("capacity", static_cast<std::uint64_t>(recorder.capacity()));
  w.member("recorded", recorder.recorded());
  w.member("dropped", recorder.dropped());
  w.key("records").begin_array();
  for (const FlightRecord& r : records) {
    w.begin_object();
    w.member("seq", r.seq);
    if (r.trace_id != 0) {
      w.member("trace_id", support::hex16(r.trace_id));
      w.member("span_id", support::hex16(r.span_id));
    }
    w.member("request_id", r.request_id);
    w.member("loop", r.loop);
    w.member("scheduler", r.scheduler);
    w.member("outcome", r.outcome);
    w.member("cache_hit", r.cache_hit);
    w.member("instrs", static_cast<std::int64_t>(r.instrs));
    w.member("ncore", static_cast<std::int64_t>(r.ncore));
    w.member("ii", static_cast<std::int64_t>(r.ii));
    w.member("mii", static_cast<std::int64_t>(r.mii));
    w.member("c_delay_threshold", static_cast<std::int64_t>(r.c_delay_threshold));
    w.member("p_max", r.p_max);
    w.member("t_queue_us", r.t_queue_us);
    w.member("t_schedule_us", r.t_schedule_us);
    w.member("t_validate_us", r.t_validate_us);
    w.member("t_total_us", r.t_total_us);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace tms::obs
