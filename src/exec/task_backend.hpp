// The task-DAG execution backend: ranks are fibers on a work-stealing pool.
//
// Where ThreadBackend gives every rank its own OS thread, TaskBackend gives
// every rank a ucontext fiber and multiplexes the fibers onto
// TaskScheduler's worker pool (as many workers as the host has cores, not
// as many as the program has ranks).  A rank runs until its recv() finds
// no matching message; the fiber then suspends — the wait becomes a
// *dynamic dependency edge* — and the worker picks up another runnable
// rank from its deque.  A send() that satisfies a suspended rank's wait
// re-readies that fiber on the sender's worker, so a producer-consumer
// chain of supernodes executes depth-first on one core with user-space
// context switches instead of condvar wakeups through the kernel
// scheduler.  This is what makes the backend win on irregular elimination
// trees (chains, wide flat forests) where ThreadBackend's p threads spend
// their lives parked at merge points — see bench/bench_taskdag.cpp.
//
// Semantics are those of the Process contract, matching ThreadBackend:
//   * buffered sends, blocking tag-matched recv, try_recv polling;
//   * ranks get the same exec::WallProcess as ThreadBackend's
//     (exec/wall_process.hpp), so flops, times and counts are accounted
//     by one piece of code over this backend's transport.  Fibers are
//     non-preemptive, so between communication calls a rank runs
//     uninterrupted and the wall interval is honestly its own;
//   * an exception on one rank aborts the run (blocked peers unwind with
//     a secondary DeadlockError) and run() rethrows the root cause.
// Because the repo's message discipline keeps every in-flight (src, dst,
// tag) unique — and no solver code receives from kAnySource — any correct
// backend matches the same sends to the same recvs, so a solve on this
// backend is bit-identical to one on ThreadBackend or the simulator.
//
// Deadlock detection is exact rather than timeout-based: all messages
// come from the run's own fibers, so the moment every live fiber is
// suspended in recv with no match, no progress is possible and the run
// aborts with DeadlockError (this subsumes ThreadBackend's "every other
// rank already finished" rule).
//
// Message path: each rank's messages arrive through the same exec::Inbox
// as ThreadBackend's (exec/inbox.hpp): per-source lock-free SPSC rings,
// and a spill queue for a full ring whose methods run under state_mutex_.
// A parked receiver is re-readied through a seq_cst publish/probe
// handshake against the sender.  send_owned() moves the payload buffer
// through the ring (zero-copy for large panels).
//
// Tuning knobs (environment): SPARTS_TASK_WORKERS (see
// task_scheduler.hpp) and SPARTS_TASK_STACK_KB (per-fiber stack, default
// 1024).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/process.hpp"
#include "exec/task_scheduler.hpp"
#include "exec/latch.hpp"
#include "obs/critical_path.hpp"

namespace sparts::exec {

template <class Transport>
class WallProcess;

class TaskBackend final : public Comm {
 public:
  struct Config {
    index_t nprocs = 1;
    /// Carried as a hint source only; this backend measures wall clock.
    CostModel cost{};
    TopologyKind topology = TopologyKind::fully_connected;
    /// Worker pool shape (the worker count).
    TaskScheduler::Config scheduler{};
    /// Per-fiber stack in KiB; 0 = $SPARTS_TASK_STACK_KB, else 1024.
    std::size_t stack_kb = 0;
  };

  explicit TaskBackend(const Config& config);
  ~TaskBackend() override;

  RunStats run(const std::function<void(Process&)>& spmd) override;
  index_t nprocs() const override { return config_.nprocs; }
  const CostModel& cost() const override { return config_.cost; }
  const Topology& topology() const override { return topology_; }

  /// Scheduler counters of the most recent run() (steals, parks, ...).
  SchedulerStats last_scheduler_stats() const { return sched_stats_; }

  /// The executed fiber-segment DAG of the most recent run(): one span
  /// per fiber segment (the work between two suspensions, measured wall
  /// clock, tagged with the worker lane and rank), sequential edges
  /// along each rank, and wake edges from the send that re-readied a
  /// blocked fiber — the dynamic dependency structure the run actually
  /// discovered.  Feed to obs::critical_path().  Survives a failed run
  /// (it is the postmortem input); cleared at the next run() start.
  /// Only valid after run() returns or throws (not concurrently).
  const obs::ExecutedProfile& last_executed_profile() const {
    return profile_;
  }

 private:
  struct Fiber;
  friend class WallProcess<TaskBackend>;

  /// Job body: run `f` until it suspends or finishes, then file it.
  void resume(Fiber& f, const JobContext& ctx);
  /// Enqueue a resume of `f` on the scheduler.
  void schedule(Fiber& f, int affinity, bool low_priority = false);
  /// Entry point of every fiber (runs on its own stack).
  void fiber_main(Fiber& f);

  // --- the transport WallProcess calls (see exec/wall_process.hpp) ---

  /// Blocking receive for rank's fiber: suspends until a match arrives.
  ReceivedMessage take_match(index_t rank, index_t src, int tag);
  /// Non-blocking receive; throws DeadlockError when the run is aborted.
  bool take_match_now(index_t rank, index_t src, int tag,
                      ReceivedMessage* out);
  /// Deliver to `dst`'s inbox, waking its fiber if the message matches
  /// the wait it is parked on.
  void deliver(index_t dst, ReceivedMessage&& msg);
  /// Responsive sleep: yields the fiber until a message arrives or
  /// `seconds` of wall time have passed (see Process::poll_wait).
  void poll_wait(index_t rank, double seconds);

  /// Under state_mutex_: if `d` is parked waiting for a message from
  /// `sender` carrying `tag`, unpark it and re-ready it on the sending
  /// worker.
  void wake_if_waiting_locked(Fiber& d, const Fiber& sender, int tag);
  /// Abort the run: mark it dead and re-ready every parked fiber so it
  /// unwinds with DeadlockError.  Idempotent.
  void abort_all_locked(const std::string& reason);
  /// Deadlock check: every live fiber suspended with no match in sight.
  void check_stalled_locked();

  static void trampoline(unsigned hi, unsigned lo);
  /// Sanitizer bookkeeping on arrival inside a fiber.
  static void finish_switch_into_fiber(Fiber& f);
  /// Save the calling fiber's context and return to its worker.
  static void switch_out_of_fiber(Fiber& f);

  Config config_;
  Topology topology_;
  std::size_t stack_bytes_ = 0;

  // --- per-run state -------------------------------------------------
  std::unique_ptr<TaskScheduler> scheduler_;
  std::vector<std::unique_ptr<Fiber>> fibers_;
  /// Per-rank SPMD errors, written by each fiber, read after the run.
  std::vector<std::exception_ptr> errors_;
  /// Guards the inboxes' spill queues, fiber park/abort flags and the
  /// live/blocked counters.  Never held across a context switch.
  std::mutex state_mutex_;
  index_t live_ = 0;     ///< fibers still inside spmd()
  index_t blocked_ = 0;  ///< fibers parked in recv
  bool aborted_ = false;
  Latch* done_ = nullptr;
  std::chrono::steady_clock::time_point epoch_{};
  bool running_ = false;
  SchedulerStats sched_stats_{};

  /// Executed fiber-segment DAG (see last_executed_profile()).  Appends
  /// happen once per fiber resume under profile_mutex_ — two clock
  /// reads and a short critical section, small next to the context
  /// switch they bracket.
  obs::ExecutedProfile profile_;
  std::mutex profile_mutex_;
  std::atomic<std::int64_t> next_seg_{0};
};

}  // namespace sparts::exec
