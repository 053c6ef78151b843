// Work-stealing thread pool for batch compilation jobs.
//
// The driver's workloads are embarrassingly parallel — every (loop,
// config, scheduler) triple is an independent pipeline run — but their
// costs are wildly uneven (a 102-instruction lucas loop takes orders of
// magnitude longer to schedule than an 8-instruction kernel), so static
// partitioning leaves cores idle. JobPool therefore deals jobs round-robin
// into per-worker deques and lets idle workers steal from the busy ones.
//
// The deque is a fixed-buffer variant of the Chase-Lev work-stealing
// deque (Le/Pop/Cohen/Nardelli, PPoPP'13 orderings): because every job is
// seeded before the workers start and jobs never spawn jobs, the buffer
// is immutable while threads run — no growing, no index recycling, and
// the classic ABA hazards disappear. The owner pops LIFO from the bottom;
// thieves CAS the top (the lock-free steal path). Termination is
// likewise simple: a worker exits after a full sweep of every deque finds
// them all empty (a lost CAS race forces a re-sweep, so no job can be
// stranded).
//
// Determinism contract: run(count, body) invokes body(i) exactly once for
// every i in [0, count); callers write results into slot i of a
// pre-sized vector, so result ordering is by submission index no matter
// which worker ran the job or in what order. body must not submit new
// jobs.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tms::driver {

/// Fixed-capacity single-owner work-stealing deque of job indices.
/// All seeding happens before concurrent access starts (seeding
/// happens-before thread creation), so the buffer itself is never
/// written concurrently — only `top_`/`bottom_` are contended.
class StealDeque {
 public:
  explicit StealDeque(std::size_t capacity) { buf_.reserve(capacity); }

  /// Pre-start only: no synchronisation.
  void seed(std::size_t job) {
    buf_.push_back(job);
    bottom_.store(static_cast<std::int64_t>(buf_.size()), std::memory_order_relaxed);
  }

  /// Owner-only LIFO pop from the bottom.
  bool pop(std::size_t& out);

  enum class Steal {
    kStole,  ///< out holds a job
    kEmpty,  ///< nothing to steal
    kLost,   ///< lost a CAS race; the deque may still hold work — retry
  };

  /// Thief-side FIFO steal from the top. Callable from any thread.
  Steal steal(std::size_t& out);

 private:
  std::vector<std::size_t> buf_;
  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
};

class JobPool {
 public:
  /// threads <= 0 selects default_threads().
  explicit JobPool(int threads = 0);

  int threads() const { return threads_; }

  /// std::thread::hardware_concurrency, clamped to >= 1.
  static int default_threads();

  /// Runs jobs 0..count-1, each exactly once, across the pool's workers.
  /// The calling thread acts as worker 0, so a 1-thread pool runs the
  /// batch inline with zero thread overhead — in reverse submission
  /// order, since the owner pops its deque LIFO (count-1 first, 0 last).
  /// If a job throws, the remaining jobs still run and the first
  /// captured exception is rethrown after every worker has drained.
  void run(std::size_t count, const std::function<void(std::size_t)>& body);

 private:
  int threads_;
};

/// Persistent bounded executor for the compile service (src/serve).
///
/// JobPool::run is a batch primitive: it assumes every job is known up
/// front and tears the workers down when the batch drains. A daemon needs
/// the opposite shape — workers that outlive any one request, a bounded
/// submission queue whose high-water mark is the admission-control knob,
/// and per-task lifecycle hooks the service builds on:
///
/// - try_submit never blocks: it returns nullptr when the queue is at
///   capacity (the caller turns that into a RETRY_AFTER response) or the
///   pool is shut down.
/// - A queued task can be cancelled before it starts (deadline expiry
///   while waiting); cancellation of a running task is cooperative — the
///   task body checks its own deadline between pipeline stages.
/// - An exception escaping a task body is captured into the task (state
///   kFailed, rethrown by rethrow()), never onto a worker thread.
/// - shutdown(kFinishQueued) drains the queue then joins (graceful
///   drain); shutdown(kCancelQueued) cancels everything still queued,
///   finishes only the tasks already running, then joins.
class TaskPool {
 public:
  enum class TaskState { kQueued, kRunning, kDone, kFailed, kCancelled };

  class Task {
   public:
    TaskState state() const;

    /// Queued -> cancelled; returns false once the task started (or
    /// finished). A cancelled task's body never runs.
    bool cancel();

    /// Blocks until the task is done, failed, or cancelled.
    void wait();

    /// wait() with a deadline; false when the deadline passed first.
    bool wait_until(std::chrono::steady_clock::time_point deadline);

    /// Rethrows the exception captured from the task body, if any.
    void rethrow();

   private:
    friend class TaskPool;
    std::function<void()> fn_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    TaskState state_ = TaskState::kQueued;
    std::exception_ptr error_;

    bool finished_locked() const {
      return state_ == TaskState::kDone || state_ == TaskState::kFailed ||
             state_ == TaskState::kCancelled;
    }
  };

  /// threads <= 0 selects JobPool::default_threads(); queue_capacity is
  /// the admission high-water mark (tasks queued, not running).
  TaskPool(int threads, std::size_t queue_capacity);
  ~TaskPool();  ///< shutdown(Drain::kCancelQueued)

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  /// nullptr when the queue is full or the pool is shut down.
  std::shared_ptr<Task> try_submit(std::function<void()> fn);

  std::size_t queue_depth() const;
  std::size_t queue_capacity() const { return capacity_; }
  int threads() const { return static_cast<int>(workers_.size()); }

  enum class Drain { kFinishQueued, kCancelQueued };

  /// Idempotent; joins the workers before returning.
  void shutdown(Drain mode);

 private:
  void worker_loop();

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Task>> queue_;
  bool shutdown_ = false;
  bool finish_queued_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tms::driver
