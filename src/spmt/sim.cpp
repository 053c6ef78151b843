#include "spmt/sim.hpp"

#include <algorithm>
#include <string>
#include <vector>

namespace tms::spmt {

std::string trace_to_csv(const std::vector<ThreadTrace>& trace) {
  std::string out = "thread,core,start,completion,commit_end,attempts,sync_stall,mem_stall\n";
  for (const ThreadTrace& t : trace) {
    out += std::to_string(t.thread) + "," + std::to_string(t.core) + "," +
           std::to_string(t.start) + "," + std::to_string(t.completion) + "," +
           std::to_string(t.commit_end) + "," + std::to_string(t.attempts) + "," +
           std::to_string(t.sync_stall) + "," + std::to_string(t.mem_stall) + "\n";
  }
  return out;
}

std::string trace_to_ascii(const std::vector<ThreadTrace>& trace, int max_threads) {
  if (trace.empty()) return "(empty trace)\n";
  const int n = std::min<int>(max_threads, static_cast<int>(trace.size()));
  const std::int64_t t0 = trace.front().start;
  std::int64_t t1 = t0 + 1;
  for (int i = 0; i < n; ++i) t1 = std::max(t1, trace[static_cast<std::size_t>(i)].commit_end);
  // Scale to at most 96 columns.
  const std::int64_t span = t1 - t0;
  const std::int64_t scale = std::max<std::int64_t>(1, (span + 95) / 96);

  std::string out = "measured execution ('=' run, 'c' commit, '*' squashed; 1 column = " +
                    std::to_string(scale) + " cycle(s))\n";
  for (int i = 0; i < n; ++i) {
    const ThreadTrace& t = trace[static_cast<std::size_t>(i)];
    std::string line(static_cast<std::size_t>((t1 - t0) / scale) + 2, ' ');
    const auto col = [&](std::int64_t c) {
      return static_cast<std::size_t>((c - t0) / scale);
    };
    for (std::int64_t c = t.start; c < t.completion; c += scale) line[col(c)] = '=';
    for (std::int64_t c = std::max(t.completion, t.start); c < t.commit_end; c += scale) {
      line[col(c)] = 'c';
    }
    out += "  core " + std::to_string(t.core) + " thr " + std::to_string(t.thread) +
           (t.attempts > 1 ? "*" : " ") + " |" + line + "|\n";
  }
  return out;
}

}  // namespace tms::spmt
