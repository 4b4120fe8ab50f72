// Work-stealing task scheduler: the execution engine under exec::TaskBackend
// and TaskScheduler::run_all.
//
// Structure is the classic Cilk/TBB shape:
//   * one deque per worker thread, guarded by its own mutex.  The owner
//     pushes and pops at the back (LIFO — depth-first, cache-warm);
//     thieves steal from the front (FIFO — oldest, biggest subtrees);
//   * victim order: worker w tries w+1, w+2, ... (mod the pool size), so
//     thieves fan out instead of converging on worker 0;
//   * idle policy: a starved worker re-sweeps every deque twice, then
//     parks on a condition variable; submit() wakes parked workers.
//
// The scheduler runs two kinds of clients: fork-joins of independent
// bodies (run_all — the per-level subgraph tasks of
// ordering::nested_dissection) and the fiber resume-jobs of TaskBackend.
// It knows nothing about either — a job is just a callable receiving the
// worker it landed on and whether it was stolen, which is what the
// tracing layer wants to know.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "exec/ws_deque.hpp"

namespace sparts::exec {

/// Where a job ran: handed to the job body for tracing/affinity decisions.
struct JobContext {
  int worker = 0;       ///< worker index the job executed on
  bool stolen = false;  ///< true when it ran off another worker's deque
};

/// Aggregate scheduler counters (relaxed snapshots; exact once quiescent).
struct SchedulerStats {
  int workers = 0;
  std::int64_t jobs_run = 0;
  std::int64_t steals = 0;  ///< jobs that ran on a worker other than their deque's
  std::int64_t parks = 0;   ///< times a starved worker went to sleep
};

class TaskScheduler {
 public:
  struct Config {
    /// Worker thread count; 0 = $SPARTS_TASK_WORKERS, else the host's
    /// hardware concurrency (at least 1).
    int workers = 0;
  };

  using Job = std::function<void(const JobContext&)>;

  TaskScheduler();  ///< default Config
  explicit TaskScheduler(const Config& config);
  ~TaskScheduler();

  TaskScheduler(const TaskScheduler&) = delete;
  TaskScheduler& operator=(const TaskScheduler&) = delete;

  /// Enqueue a job.  `affinity` names the worker whose deque receives it
  /// (taken modulo the pool size); -1 means the calling worker when the
  /// caller is a worker thread, round-robin otherwise.  `low_priority`
  /// pushes to the steal end instead of the owner end: the job runs after
  /// everything already queued there — used for yields, so a polling
  /// fiber cannot starve its queue-mates.
  void submit(Job job, int affinity = -1, bool low_priority = false);

  /// Run independent bodies to completion (fork-join).  Every body is
  /// released at once; a body throwing cancels every body not yet started,
  /// and the first error is rethrown here.  A traced call is its own run
  /// segment, with a `task_run` span per body on the worker tracks.
  /// Blocks the calling thread; throws when called from a worker of this
  /// pool.
  void run_all(std::span<const std::function<void()>> bodies);

  int workers() const { return static_cast<int>(workers_.size()); }

  SchedulerStats stats() const;

 private:
  struct Worker {
    WorkDeque<Job> deque;  ///< owner end = back, steal end = front
    std::atomic<std::int64_t> jobs_run{0};
    std::atomic<std::int64_t> steals{0};
    std::atomic<std::int64_t> parks{0};
    /// Jobs currently in `deque` (relaxed estimate; feeds the Perfetto
    /// deque-depth counter track).
    std::atomic<std::int64_t> depth{0};
    std::thread thread;
  };

  void worker_loop(int w);
  bool try_pop(int w, Job* out);
  bool try_steal(int w, Job* out, int* victim);

  std::vector<std::unique_ptr<Worker>> workers_;

  std::atomic<std::int64_t> queued_{0};  ///< jobs pushed, not yet popped
  std::atomic<int> parked_{0};           ///< workers asleep right now
  std::atomic<std::int64_t> next_rr_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  bool stop_ = false;  ///< guarded by park_mutex_
};

}  // namespace sparts::exec
