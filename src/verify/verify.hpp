// A Loom/relacy-style model checker for the repo's lock-free primitives.
//
// explore() runs a small concurrent program — a setup callback that builds
// shared state and spawns 2-6 logical threads — under EVERY thread
// interleaving (up to a preemption bound), with the C++ memory model
// approximated operationally: relaxed loads may return stale values, so a
// protocol that forgets an acquire/release/fence pair FAILS here even
// though it would pass a lifetime of stress tests on x86.
//
// The primitives under test (SpscRing, ParkingSlot, WorkDeque) are
// templates over an atomics policy (common/atomics_policy.hpp);
// instantiating them with VerifyAtomics swaps std::atomic / std::mutex /
// std::condition_variable for the modeled twins below — the exact same
// source lines production compiles.
//
// Checked properties:
//   * data races: Cell<T> (non-atomic slots) accesses without a
//     happens-before edge;
//   * lost wakeups / deadlock: all live threads blocked (condvar waits are
//     modeled untimed, so a protocol that only recovers via its timeout is
//     reported — timeouts are liveness escape hatches, not correctness);
//   * lost/duplicated data, user invariants: verify::check() assertions in
//     thread bodies and the finally() callback;
//   * livelock: a schedule exceeding Options::max_steps.
//
// On failure the Result carries a readable trace of the failing schedule
// and a replay token that re-runs exactly that schedule
// (docs/static_analysis.md#model-checker covers the workflow and the
// model's limits).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <string>
#include <type_traits>
#include <utility>

namespace sparts::verify {

struct Options {
  /// Max context switches away from a still-runnable thread per schedule
  /// (CHESS-style bound; switches at blocking points are free).  Almost
  /// every real concurrency bug manifests within 2 preemptions.
  int max_preemptions = 2;
  /// Max CONSECUTIVE stale (non-latest) values one thread may observe of
  /// one atomic — the model's "eventual visibility", which keeps spin
  /// loops terminating while still exercising staleness windows.
  int stale_reads = 2;
  /// Schedule-count ceiling; hitting it ends exploration with
  /// Result::complete == false (not a failure).
  std::uint64_t max_schedules = 4'000'000;
  /// Per-schedule step ceiling; exceeding it is reported as a livelock.
  std::uint64_t max_steps = 20'000;
  /// Stack bytes per logical thread's fiber.
  std::size_t stack_bytes = 256 * 1024;
  /// A Result::replay token: run exactly that one schedule (for
  /// reproducing a reported failure under a debugger).
  const char* replay = nullptr;
};

struct Result {
  bool ok = false;        ///< no property violated on any explored schedule
  bool complete = false;  ///< the whole (bounded) schedule space was covered
  std::uint64_t schedules = 0;  ///< schedules executed
  std::uint64_t steps = 0;      ///< total operations executed
  std::uint64_t pruned = 0;     ///< partial executions cut by sleep sets
  std::string error;            ///< failure description (empty when ok)
  std::string trace;            ///< human-readable failing schedule
  std::string replay;           ///< token for Options::replay
};

enum class RmwOp : std::uint8_t { exchange, add, sub, or_, and_ };
enum class ObjKind : std::uint8_t { atomic_obj, cell, mutex_obj, condvar };

/// Handed to the setup callback; spawns threads and receives checks.  The
/// op_* surface below is the shim interface — user code goes through
/// verify::atomic / Cell / Mutex / CondVar instead of calling it directly.
class Scheduler {
 public:
  /// Spawn a logical thread (max 6).  Bodies run as fibers under the
  /// explorer; share state via std::shared_ptr captured by value.
  void thread(std::string name, std::function<void()> body);

  /// Run after every schedule on which all threads finished, with full
  /// visibility of their writes; verify::check() failures here report the
  /// schedule that broke the invariant.
  void finally(std::function<void()> body);

  /// Abort the current schedule as a property violation.
  [[noreturn]] void fail(std::string msg);

  /// The scheduler of the explore() call this code runs under.
  static Scheduler& current();
  static Scheduler* current_or_null();

  // ---- shim interface ----
  int register_object(ObjKind kind, std::uint64_t init);
  std::uint64_t op_load(int obj, std::memory_order mo);
  void op_store(int obj, std::uint64_t v, std::memory_order mo);
  std::uint64_t op_rmw(int obj, RmwOp op, std::uint64_t operand,
                       std::memory_order mo);
  bool op_cas(int obj, std::uint64_t* expected, std::uint64_t desired,
              std::memory_order mo);
  void op_cell(int obj, bool write);
  void op_mutex_lock(int obj);
  void op_mutex_unlock(int obj);
  void op_cv_wait(int cv, int mutex);
  void op_cv_notify(int cv, bool all);
  void op_fence(std::memory_order mo);
  void op_spin();

  struct Impl;
  explicit Scheduler(Impl& impl) : impl_(impl) {}
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

 private:
  Impl& impl_;
};

/// Explore every (bounded) interleaving of the program `setup` builds.
/// setup runs once per schedule — it must be deterministic and
/// self-contained (no reads of clocks or global mutable state).
Result explore(const Options& opts,
               const std::function<void(Scheduler&)>& setup);
Result explore(const std::function<void(Scheduler&)>& setup);

/// Assert an invariant; failure aborts the schedule and reports its trace.
inline void check(bool cond, const char* msg) {
  if (!cond) Scheduler::current().fail(msg);
}

/// Modeled std::atomic_thread_fence.  seq_cst only (acquire/release
/// fences are not modeled and fail loudly; relaxed is a no-op).
void fence(std::memory_order mo);

/// Modeled busy-wait pause.  A spinning thread is only re-scheduled when
/// an atomic it recently read has a store it has not yet observed —
/// which makes termination of `while (!probe()) spin_yield();` loops a
/// checkable property instead of an exploration explosion.
void spin_yield();

namespace detail {

template <typename T>
std::uint64_t to_rep(T v) {
  static_assert(std::is_trivially_copyable_v<T> && sizeof(T) <= 8,
                "verify::atomic supports trivially copyable T of <= 8 bytes");
  std::uint64_t r = 0;
  // Bit-pattern conversion, not a payload copy (pre-bit_cast idiom).
  std::memcpy(&r, &v, sizeof(v));  // sparts-lint: allow(raw-panel-copy)
  return r;
}

template <typename T>
T from_rep(std::uint64_t r) {
  T v;
  std::memcpy(&v, &r, sizeof(v));  // sparts-lint: allow(raw-panel-copy)
  return v;
}

}  // namespace detail

/// The modeled std::atomic<T>.  Every operation is a scheduling point;
/// loads weaker than acquire may observe stale values (a distinct DFS
/// branch per readable value).  compare_exchange_weak never fails
/// spuriously (the model has no cache-line contention to model).
template <typename T>
class atomic {
 public:
  atomic() : atomic(T{}) {}
  atomic(T v)  // NOLINT(google-explicit-constructor): mirrors std::atomic
      : sch_(&Scheduler::current()),
        id_(sch_->register_object(ObjKind::atomic_obj, detail::to_rep(v))) {}

  atomic(const atomic&) = delete;
  atomic& operator=(const atomic&) = delete;

  T load(std::memory_order mo = std::memory_order_seq_cst) const {
    return detail::from_rep<T>(sch_->op_load(id_, mo));
  }
  void store(T v, std::memory_order mo = std::memory_order_seq_cst) {
    sch_->op_store(id_, detail::to_rep(v), mo);
  }
  T exchange(T v, std::memory_order mo = std::memory_order_seq_cst) {
    return detail::from_rep<T>(
        sch_->op_rmw(id_, RmwOp::exchange, detail::to_rep(v), mo));
  }
  T fetch_add(T d, std::memory_order mo = std::memory_order_seq_cst) {
    return detail::from_rep<T>(
        sch_->op_rmw(id_, RmwOp::add, detail::to_rep(d), mo));
  }
  T fetch_sub(T d, std::memory_order mo = std::memory_order_seq_cst) {
    return detail::from_rep<T>(
        sch_->op_rmw(id_, RmwOp::sub, detail::to_rep(d), mo));
  }
  T fetch_or(T d, std::memory_order mo = std::memory_order_seq_cst) {
    return detail::from_rep<T>(
        sch_->op_rmw(id_, RmwOp::or_, detail::to_rep(d), mo));
  }
  T fetch_and(T d, std::memory_order mo = std::memory_order_seq_cst) {
    return detail::from_rep<T>(
        sch_->op_rmw(id_, RmwOp::and_, detail::to_rep(d), mo));
  }
  bool compare_exchange_strong(
      T& expected, T desired,
      std::memory_order success = std::memory_order_seq_cst,
      std::memory_order failure = std::memory_order_seq_cst) {
    (void)failure;  // the model applies the success order's read side
    std::uint64_t e = detail::to_rep(expected);
    const bool ok = sch_->op_cas(id_, &e, detail::to_rep(desired), success);
    if (!ok) expected = detail::from_rep<T>(e);
    return ok;
  }
  bool compare_exchange_weak(
      T& expected, T desired,
      std::memory_order success = std::memory_order_seq_cst,
      std::memory_order failure = std::memory_order_seq_cst) {
    return compare_exchange_strong(expected, desired, success, failure);
  }

 private:
  Scheduler* sch_;
  int id_;
};

/// The modeled non-atomic slot: set()/take()/mut() are writes, get() is a
/// read, and any pair without a happens-before edge (at least one a
/// write) is reported as a data race.  mut() instruments the CALL — the
/// returned reference is assumed used before the next scheduling point.
template <typename T>
class Cell {
 public:
  Cell()
      : sch_(&Scheduler::current()),
        id_(sch_->register_object(ObjKind::cell, 0)) {}
  explicit Cell(T v) : Cell() { value_ = std::move(v); }

  void set(T v) {
    sch_->op_cell(id_, true);
    value_ = std::move(v);
  }
  T take() {
    sch_->op_cell(id_, true);
    return std::move(value_);
  }
  T& mut() {
    sch_->op_cell(id_, true);
    return value_;
  }
  const T& get() const {
    sch_->op_cell(id_, false);
    return value_;
  }

 private:
  Scheduler* sch_;
  int id_;
  T value_{};
};

/// Modeled std::mutex (BasicLockable).  Detects double-unlock and
/// contributes lock-order deadlocks to the global deadlock check.
class Mutex {
 public:
  Mutex()
      : sch_(&Scheduler::current()),
        id_(sch_->register_object(ObjKind::mutex_obj, 0)) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() { sch_->op_mutex_lock(id_); }
  void unlock() { sch_->op_mutex_unlock(id_); }

  int object_id() const { return id_; }

 private:
  Scheduler* sch_;
  int id_;
};

/// Modeled std::condition_variable.  Waits are untimed (deadlines are
/// ignored: a protocol must not need its timeout for correctness) and
/// spurious-wakeup-free; notify with no waiter parked is lost, exactly
/// like the real thing — which is what makes lost-wakeup windows
/// detectable as deadlocks.
class CondVar {
 public:
  CondVar()
      : sch_(&Scheduler::current()),
        id_(sch_->register_object(ObjKind::condvar, 0)) {}
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void wait(std::unique_lock<Mutex>& lock) {
    sch_->op_cv_wait(id_, lock.mutex()->object_id());
  }
  template <typename ClockT, typename Duration>
  std::cv_status wait_until(
      std::unique_lock<Mutex>& lock,
      const std::chrono::time_point<ClockT, Duration>& /*deadline*/) {
    wait(lock);
    return std::cv_status::no_timeout;
  }
  template <typename Rep, typename Period>
  std::cv_status wait_for(
      std::unique_lock<Mutex>& lock,
      const std::chrono::duration<Rep, Period>& /*duration*/) {
    wait(lock);
    return std::cv_status::no_timeout;
  }
  void notify_one() { sch_->op_cv_notify(id_, false); }
  void notify_all() { sch_->op_cv_notify(id_, true); }

 private:
  Scheduler* sch_;
  int id_;
};

/// The verification policy: drop-in for common::StdAtomics.
struct VerifyAtomics {
  template <typename T>
  using Atomic = verify::atomic<T>;

  using Mutex = verify::Mutex;
  using CondVar = verify::CondVar;

  template <typename T>
  using Cell = verify::Cell<T>;

  static void fence(std::memory_order mo) { verify::fence(mo); }
};

}  // namespace sparts::verify
