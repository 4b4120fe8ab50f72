#include "exec/task_backend.hpp"

#include <ucontext.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <utility>

#include "exec/inbox.hpp"
#include "exec/wall_process.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

// Sanitizer fiber annotations: ASan must be told about stack switches or
// its stack bookkeeping flags false use-after-return; TSan must be told or
// it sees one OS thread's accesses interleaved across many logical stacks
// and reports phantom races.  Both are attribute-detected so the plain
// build compiles them away entirely.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPARTS_ASAN_FIBERS 1
#endif
#if __has_feature(thread_sanitizer)
#define SPARTS_TSAN_FIBERS 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) && !defined(SPARTS_ASAN_FIBERS)
#define SPARTS_ASAN_FIBERS 1
#endif
#if defined(__SANITIZE_THREAD__) && !defined(SPARTS_TSAN_FIBERS)
#define SPARTS_TSAN_FIBERS 1
#endif
#ifdef SPARTS_ASAN_FIBERS
#include <sanitizer/common_interface_defs.h>
#endif
#ifdef SPARTS_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif

namespace sparts::exec {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

std::size_t env_stack_kb() {
  const char* v = std::getenv("SPARTS_TASK_STACK_KB");
  if (v == nullptr || *v == '\0') return 0;
  const long kb = std::strtol(v, nullptr, 10);
  return kb > 0 ? static_cast<std::size_t>(kb) : 0;
}

/// Executed-profile safety valve: a run with more fiber segments than
/// this stops appending (the critical path of a solve is decided long
/// before a million segments).
constexpr std::size_t kMaxSegments = std::size_t{1} << 20;

#ifdef SPARTS_ASAN_FIBERS
// ASan fake-stack handle of the worker thread, saved while it is parked
// inside a fiber.  One per OS thread: a worker resumes exactly one fiber
// at a time.
thread_local void* tl_worker_fake_stack = nullptr;
#endif

}  // namespace

// ---------------------------------------------------------------------------
// Fiber
// ---------------------------------------------------------------------------

struct TaskBackend::Fiber {
  explicit Fiber(index_t nprocs) : inbox(nprocs) {}

  index_t rank = -1;
  TaskBackend* backend = nullptr;
  const std::function<void(Process&)>* spmd = nullptr;

  ucontext_t ctx{};
  /// The suspended worker context to swap back into; refreshed on every
  /// resume because the fiber may migrate between workers.
  ucontext_t* return_ctx = nullptr;
  std::unique_ptr<std::byte[]> stack;
  std::size_t stack_size = 0;

  /// Why the fiber handed control back to its worker.
  enum class Pause : std::uint8_t { none, blocked, yielded, finished };
  Pause pause = Pause::none;

  // Wait descriptor, valid while pause == blocked.
  index_t wait_src = 0;
  int wait_tag = 0;
  /// This rank's incoming messages.  The owner side belongs to the fiber's
  /// executor: the fiber itself, or its worker while it is suspended.
  Inbox inbox;
  /// Context fully saved and registered as waiting — only then may a
  /// sender re-ready the fiber.  All transitions happen under
  /// state_mutex_; atomic so deliver() can probe it lock-free after its
  /// ring push (seq_cst handshake, see resume()/deliver()).
  std::atomic<bool> parked{false};
  /// Set under state_mutex_ when the run aborts; the fiber throws on its
  /// next resume.
  bool abort_on_resume = false;
  std::string abort_msg;

  // Executed-segment bookkeeping (see TaskBackend::profile_).  cur_seg is
  // the segment currently running this fiber (read by deliver() to stamp
  // wake edges); last_seg chains a rank's segments sequentially;
  // wake_from is the sender segment that re-readied this fiber, written
  // under state_mutex_ and read on the next resume (ordered by the
  // scheduler handoff).
  std::int64_t cur_seg = -1;
  std::int64_t last_seg = -1;
  std::int64_t wake_from = -1;

  ProcStats stats;

#ifdef SPARTS_TSAN_FIBERS
  void* tsan_fiber = nullptr;
  void* tsan_return = nullptr;
#endif
#ifdef SPARTS_ASAN_FIBERS
  void* asan_fake = nullptr;  ///< fiber's fake stack while suspended
  const void* asan_return_bottom = nullptr;
  std::size_t asan_return_size = 0;
#endif
};

/// Bookkeeping on arrival inside a fiber (first entry or after resume).
void TaskBackend::finish_switch_into_fiber(Fiber& f) {
#ifdef SPARTS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(f.asan_fake, &f.asan_return_bottom,
                                  &f.asan_return_size);
  f.asan_fake = nullptr;
#else
  (void)f;
#endif
}

/// Suspend the calling fiber: save its context and return to the worker.
/// On a later resume, execution continues after the swapcontext.
void TaskBackend::switch_out_of_fiber(Fiber& f) {
  const bool finishing = f.pause == Fiber::Pause::finished;
#ifdef SPARTS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(finishing ? nullptr : &f.asan_fake,
                                 f.asan_return_bottom, f.asan_return_size);
#endif
#ifdef SPARTS_TSAN_FIBERS
  __tsan_switch_to_fiber(f.tsan_return, 0);
#endif
  (void)finishing;
  SPARTS_CHECK(swapcontext(&f.ctx, f.return_ctx) == 0,
               "swapcontext out of fiber failed");
  // Resumed (never reached when finishing).
  finish_switch_into_fiber(f);
}

// ---------------------------------------------------------------------------
// TaskBackend
// ---------------------------------------------------------------------------

TaskBackend::TaskBackend(const Config& config)
    : config_(config), topology_(config.topology, config.nprocs) {
  SPARTS_CHECK(config.nprocs >= 1, "need at least one processor");
  std::size_t kb = config.stack_kb;
  if (kb == 0) kb = env_stack_kb();
  if (kb == 0) kb = 1024;
  stack_bytes_ = kb * 1024;
}

TaskBackend::~TaskBackend() = default;

// makecontext passes only ints; split the fiber pointer across two.
void TaskBackend::trampoline(unsigned hi, unsigned lo) {
  const std::uintptr_t bits =
      (static_cast<std::uintptr_t>(hi) << 32U) | static_cast<std::uintptr_t>(lo);
  Fiber* f = reinterpret_cast<Fiber*>(bits);
  f->backend->fiber_main(*f);
}

void TaskBackend::fiber_main(Fiber& f) {
  finish_switch_into_fiber(f);
  {
    // Built here, when SPMD code starts, so the first compute segment does
    // not absorb fiber set-up or the time the fiber sat queued.  Scoped:
    // the finished fiber's stack is never unwound.
    WallProcess<TaskBackend> proc(*this, f.rank, epoch_);
    try {
      (*f.spmd)(proc);
    } catch (...) {
      errors_[static_cast<std::size_t>(f.rank)] = std::current_exception();
      obs::flight_note(static_cast<std::int32_t>(f.rank), "rank_failed");
      std::lock_guard<std::mutex> lock(state_mutex_);
      abort_all_locked("task backend run aborted: rank " +
                       std::to_string(f.rank) + " failed");
    }
    f.stats = proc.finish();
  }
  f.pause = Fiber::Pause::finished;
  switch_out_of_fiber(f);
  SPARTS_CHECK(false, "finished fiber resumed");  // unreachable
}

void TaskBackend::schedule(Fiber& f, int affinity, bool low_priority) {
  scheduler_->submit(
      [this, fp = &f](const JobContext& ctx) { resume(*fp, ctx); }, affinity,
      low_priority);
}

void TaskBackend::resume(Fiber& f, const JobContext& ctx) {
  const Clock::time_point seg_start = Clock::now();
  f.cur_seg = next_seg_.fetch_add(1, std::memory_order_relaxed);
  const bool tracing = obs::Tracer::enabled();
  if (tracing) {
    auto& tracer = obs::Tracer::instance();
    const auto r32 = static_cast<std::int32_t>(f.rank);
    const double ts = seconds_between(epoch_, seg_start);
    if (ctx.stolen) {
      tracer.record_local(r32, obs::EventKind::instant, obs::Category::task,
                          "task_steal", ts,
                          static_cast<std::int64_t>(ctx.worker));
    }
    tracer.record_local(r32, obs::EventKind::span_begin, obs::Category::task,
                        "task_run", ts, static_cast<std::int64_t>(ctx.worker),
                        static_cast<std::int64_t>(f.rank));
    // Fiber lifecycle on the worker's own track, next to its sched spans.
    tracer.record_local(obs::worker_track(ctx.worker), obs::EventKind::instant,
                        obs::Category::sched, "fiber_resume", ts,
                        static_cast<std::int64_t>(f.rank),
                        static_cast<std::int64_t>(f.cur_seg));
  }

  ucontext_t sched_ctx;
  f.return_ctx = &sched_ctx;
#ifdef SPARTS_ASAN_FIBERS
  __sanitizer_start_switch_fiber(&tl_worker_fake_stack, f.stack.get(),
                                 f.stack_size);
#endif
#ifdef SPARTS_TSAN_FIBERS
  f.tsan_return = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(f.tsan_fiber, 0);
#endif
  SPARTS_CHECK(swapcontext(&sched_ctx, &f.ctx) == 0,
               "swapcontext into fiber failed");
#ifdef SPARTS_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(tl_worker_fake_stack, nullptr, nullptr);
#endif

  const Clock::time_point seg_end = Clock::now();
  if (tracing) {
    auto& tracer = obs::Tracer::instance();
    const double ts = seconds_between(epoch_, seg_end);
    tracer.record_local(static_cast<std::int32_t>(f.rank),
                        obs::EventKind::span_end, obs::Category::task,
                        "task_run", ts);
    tracer.record_local(obs::worker_track(ctx.worker), obs::EventKind::instant,
                        obs::Category::sched, "fiber_suspend", ts,
                        static_cast<std::int64_t>(f.rank),
                        static_cast<std::int64_t>(f.pause ==
                                                  Fiber::Pause::finished));
  }

  // Record the executed segment: one measured span, a sequential edge
  // from this rank's previous segment, and a wake edge from the sender
  // segment that re-readied us (if any).  Always on — the critical-path
  // numbers in the solver report must not require --trace.
  {
    const std::int64_t seg = f.cur_seg;
    std::lock_guard<std::mutex> lock(profile_mutex_);
    if (profile_.spans.size() < kMaxSegments) {
      obs::ExecutedSpan span;
      span.id = seg;
      span.start = seconds_between(epoch_, seg_start);
      span.end = seconds_between(epoch_, seg_end);
      span.lane = static_cast<std::int32_t>(ctx.worker);
      span.kind = static_cast<std::int32_t>(f.rank);
      profile_.spans.push_back(span);
      if (f.last_seg >= 0) profile_.edges.push_back({f.last_seg, seg});
      if (f.wake_from >= 0 && f.wake_from != f.last_seg) {
        profile_.edges.push_back({f.wake_from, seg});
      }
    }
  }
  f.last_seg = f.cur_seg;
  f.cur_seg = -1;
  f.wake_from = -1;

  switch (f.pause) {
    case Fiber::Pause::finished: {
#ifdef SPARTS_TSAN_FIBERS
      __tsan_destroy_fiber(f.tsan_fiber);
      f.tsan_fiber = nullptr;
#endif
      {
        std::lock_guard<std::mutex> lock(state_mutex_);
        --live_;
        // A rank exiting can expose a deadlock: peers blocked on it wait
        // forever now.
        check_stalled_locked();
      }
      done_->count_down();
      break;
    }
    case Fiber::Pause::blocked: {
      std::unique_lock<std::mutex> lock(state_mutex_);
      // The context is saved now; re-check the window between the fiber
      // releasing the lock and reaching the worker: a message may have
      // arrived, or the run may have aborted.
      if (aborted_) {
        if (!f.abort_on_resume) {
          f.abort_on_resume = true;
          f.abort_msg = "task backend run aborted: rank " +
                        std::to_string(f.rank) +
                        " was waiting in recv when another rank failed";
        }
        lock.unlock();
        schedule(f, ctx.worker);
        break;
      }
      // Dekker handshake with deliver(): advertise the park, then drain.
      // A sender either pushed before our drain (we see the message here)
      // or probes parked after our store (it sees true and unparks us).
      f.parked.store(true, std::memory_order_seq_cst);
      std::atomic_thread_fence(std::memory_order_seq_cst);
      f.inbox.drain_spill_locked();
      f.inbox.drain_rings();
      if (f.inbox.match(f.wait_src, f.wait_tag, nullptr)) {
        f.parked.store(false, std::memory_order_relaxed);
        lock.unlock();
        schedule(f, ctx.worker);
      } else {
        ++blocked_;
        check_stalled_locked();
      }
      break;
    }
    case Fiber::Pause::yielded:
      // Steal end of the current worker's deque: queue-mates run first.
      schedule(f, ctx.worker, /*low_priority=*/true);
      break;
    case Fiber::Pause::none:
      SPARTS_CHECK(false, "fiber suspended without a pause reason");
  }
}

void TaskBackend::abort_all_locked(const std::string& reason) {
  if (aborted_) return;
  aborted_ = true;
  obs::flight_note(obs::kHostTrack, "run_abort",
                   static_cast<std::int64_t>(blocked_),
                   static_cast<std::int64_t>(live_));
  for (auto& fp : fibers_) {
    Fiber& f = *fp;
    if (!f.parked.load(std::memory_order_relaxed)) continue;
    f.parked.store(false, std::memory_order_relaxed);
    --blocked_;
    f.abort_on_resume = true;
    f.abort_msg = reason + "; rank " + std::to_string(f.rank) +
                  " was waiting for src=" + std::to_string(f.wait_src) +
                  " tag=" + std::to_string(f.wait_tag);
    schedule(f, /*affinity=*/-1);
  }
}

void TaskBackend::check_stalled_locked() {
  if (aborted_ || live_ == 0 || blocked_ < live_) return;
  // Every live fiber is suspended in recv with no matching message and
  // every possible sender is itself suspended or finished: deadlock.
  std::string who;
  for (const auto& fp : fibers_) {
    if (fp->parked.load(std::memory_order_relaxed)) {
      who = "rank " + std::to_string(fp->rank) + " waits for src=" +
            std::to_string(fp->wait_src) + " tag=" +
            std::to_string(fp->wait_tag);
      break;
    }
  }
  abort_all_locked("task backend deadlock: every live rank is blocked in "
                   "recv (" + who + ") and no sender can run");
}

ReceivedMessage TaskBackend::take_match(index_t rank, index_t src, int tag) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  for (;;) {
    // Fast path: drain own rings and match without the state mutex.
    f.inbox.drain_rings();
    ReceivedMessage out;
    if (f.inbox.match(src, tag, &out)) return out;
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (f.abort_on_resume) {
        f.abort_on_resume = false;
        throw DeadlockError(f.abort_msg);
      }
      if (aborted_) {
        throw DeadlockError("task backend run aborted: rank " +
                            std::to_string(f.rank) +
                            " was waiting in recv when another rank failed");
      }
      f.inbox.drain_spill_locked();
      if (f.inbox.match(src, tag, &out)) return out;
      f.wait_src = src;
      f.wait_tag = tag;
      f.pause = Fiber::Pause::blocked;
    }
    obs::flight_note(static_cast<std::int32_t>(f.rank), "recv_wait",
                     static_cast<std::int64_t>(src),
                     static_cast<std::int64_t>(tag));
    // Unlocked handoff: the worker re-checks the mailbox under the lock
    // once the context is parked, so a send racing with this suspend is
    // never lost (senders only re-ready fibers whose parked flag is set).
    switch_out_of_fiber(f);
    if (obs::Tracer::enabled()) {
      obs::Tracer::instance().record_local(
          static_cast<std::int32_t>(f.rank), obs::EventKind::instant,
          obs::Category::task, "task_ready",
          seconds_between(epoch_, Clock::now()), static_cast<std::int64_t>(tag));
    }
  }
}

bool TaskBackend::take_match_now(index_t rank, index_t src, int tag,
                                 ReceivedMessage* out) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  f.inbox.drain_rings();
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (aborted_) {
      throw DeadlockError("task backend run aborted: rank " +
                          std::to_string(f.rank) +
                          " was polling when another rank failed");
    }
    f.inbox.drain_spill_locked();
  }
  return f.inbox.match(src, tag, out);
}

void TaskBackend::deliver(index_t dst, ReceivedMessage&& msg) {
  const Fiber& sender = *fibers_[static_cast<std::size_t>(msg.source)];
  const int tag = msg.tag;
  obs::flight_note(static_cast<std::int32_t>(sender.rank), "send",
                   static_cast<std::int64_t>(msg.payload.size()),
                   static_cast<std::int64_t>(dst));
  Fiber& d = *fibers_[static_cast<std::size_t>(dst)];
  if (d.inbox.try_push_ring(msg)) {
    // Dekker handshake with the consumer's park sequence in resume(): the
    // inbox's seq_cst hint fetch_or and this seq_cst probe are totally
    // ordered with the consumer's seq_cst parked store and fence, so
    // either we see parked==true here, or the consumer's post-park drain
    // sees our hint bit and with it the message.
    if (!d.parked.load(std::memory_order_seq_cst)) return;
    std::lock_guard<std::mutex> lock(state_mutex_);
    wake_if_waiting_locked(d, sender, tag);
    return;
  }
  std::lock_guard<std::mutex> lock(state_mutex_);
  d.inbox.spill_locked(std::move(msg));
  wake_if_waiting_locked(d, sender, tag);
}

void TaskBackend::wake_if_waiting_locked(Fiber& d, const Fiber& sender,
                                         int tag) {
  if (!d.parked.load(std::memory_order_relaxed) || d.wait_tag != tag ||
      (d.wait_src != kAnySource && d.wait_src != sender.rank)) {
    return;
  }
  d.parked.store(false, std::memory_order_relaxed);
  --blocked_;
  d.wake_from = sender.cur_seg;
  if (obs::metrics_enabled()) obs::metrics().counter("msgpath.wakes").add(1);
  // Re-ready on the sending fiber's worker: the payload is hot in its
  // cache, and the LIFO deque runs the consumer as soon as the sender
  // next suspends — producer-consumer chains execute depth-first.
  schedule(d, /*affinity=*/-1);
}

void TaskBackend::poll_wait(index_t rank, double seconds) {
  Fiber& f = *fibers_[static_cast<std::size_t>(rank)];
  // A fiber cannot sleep without wedging its worker, so it yields instead,
  // to the steal end of its worker's deque behind every runnable peer,
  // until a message arrives or `seconds` of wall time have passed.  The
  // wall-clock bound is the contract the reliability envelope relies on:
  // it counts every poll_wait as `seconds` of waiting, so a poll that
  // returned after one yield would exhaust its retransmit horizon in a few
  // thousand yields while the sender computes on another worker.
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (bool yielded = false;; yielded = true) {
    {
      std::lock_guard<std::mutex> lock(state_mutex_);
      if (f.abort_on_resume || aborted_) {
        f.abort_on_resume = false;
        throw DeadlockError("task backend run aborted: rank " +
                            std::to_string(f.rank) +
                            " was polling when another rank failed");
      }
      // Nothing left to wait for: no peer can send, a message arrived
      // since the caller's last drain, or the time is up.  Yield at least
      // once, so a polling loop always lets its queue-mates run.
      if (live_ <= 1 || f.inbox.has_arrivals() ||
          (yielded && Clock::now() >= deadline)) {
        return;
      }
      f.pause = Fiber::Pause::yielded;
    }
    switch_out_of_fiber(f);
  }
}

RunStats TaskBackend::run(const std::function<void(Process&)>& spmd) {
  SPARTS_CHECK(!running_, "TaskBackend::run is not reentrant");
  running_ = true;
  aborted_ = false;
  const index_t p = config_.nprocs;
  errors_.assign(static_cast<std::size_t>(p), nullptr);
  fibers_.clear();
  fibers_.reserve(static_cast<std::size_t>(p));
  live_ = p;
  blocked_ = 0;
  {
    std::lock_guard<std::mutex> lock(profile_mutex_);
    profile_.clear();
  }
  next_seg_.store(0, std::memory_order_relaxed);
  epoch_ = Clock::now();
  if (obs::Tracer::enabled()) obs::Tracer::instance().begin_run();

  scheduler_ = std::make_unique<TaskScheduler>(config_.scheduler);
  Latch done(p);
  done_ = &done;

  for (index_t r = 0; r < p; ++r) {
    auto f = std::make_unique<Fiber>(p);
    f->rank = r;
    f->backend = this;
    f->spmd = &spmd;
    // for_overwrite: value-initializing the stack would memset 1 MiB per
    // fiber per run, which dominates small runs (the fiber writes every
    // byte it reads).
    f->stack = std::make_unique_for_overwrite<std::byte[]>(stack_bytes_);
    f->stack_size = stack_bytes_;
    SPARTS_CHECK(getcontext(&f->ctx) == 0, "getcontext failed");
    f->ctx.uc_stack.ss_sp = f->stack.get();
    f->ctx.uc_stack.ss_size = f->stack_size;
    f->ctx.uc_link = nullptr;
    const auto bits = reinterpret_cast<std::uintptr_t>(f.get());
    makecontext(&f->ctx, reinterpret_cast<void (*)()>(&TaskBackend::trampoline),
                2, static_cast<unsigned>(bits >> 32U),
                static_cast<unsigned>(bits & 0xffffffffU));
#ifdef SPARTS_TSAN_FIBERS
    f->tsan_fiber = __tsan_create_fiber(0);
#endif
    fibers_.push_back(std::move(f));
  }

  // Topology-aware placement: contiguous rank blocks per worker, so the
  // subtree-to-subcube mapping's neighbouring ranks start on the same
  // worker (and, via the scheduler's victim order, stay within a steal
  // cluster when they overflow).  One seed job queues every fiber, so the
  // workers already running cannot start fiber r before fiber r+1 is
  // queued: with one worker the first-run order, which decides how many
  // fibers suspend, no longer depends on how fast this thread submits.
  scheduler_->submit(
      [this, p](const JobContext&) {
        const int w = scheduler_->workers();
        for (index_t r = 0; r < p; ++r) {
          schedule(*fibers_[static_cast<std::size_t>(r)],
                   static_cast<int>((r * w) / p));
        }
      },
      /*affinity=*/0);

  done.wait();
  sched_stats_ = scheduler_->stats();
  scheduler_.reset();  // joins the workers
  done_ = nullptr;
  running_ = false;

  RunStats out;
  out.procs.reserve(static_cast<std::size_t>(p));
  for (auto& f : fibers_) out.procs.push_back(f->stats);
  fibers_.clear();
  rethrow_root_cause(errors_);
  if (obs::Tracer::enabled()) {
    obs::Tracer::instance().end_run(out.parallel_time());
  }
  return out;
}

}  // namespace sparts::exec
