// Atomics policy: the seam that lets the lock-free primitives (SpscRing,
// ParkingSlot, WorkDeque) compile against std::atomic in
// production and against the model checker's verify::atomic under test —
// same source lines, zero runtime indirection.
//
// A policy provides:
//   * Atomic<T>   — the std::atomic surface (load/store/exchange/fetch_*),
//   * Cell<T>     — a NON-atomic slot.  In production it is a bare T; under
//                   verification every set()/take()/mut() is instrumented so
//                   unsynchronized access is reported as a data race (the
//                   property that makes "publish with release, consume with
//                   acquire" checkable rather than aspirational),
//   * Mutex/CondVar — std::mutex / std::condition_variable or their modeled
//                   twins (lost wakeups become detectable deadlocks),
//   * fence(mo)   — std::atomic_thread_fence or the modeled fence.
//
// Memory-order sites in policy-parameterized headers are spelled through
// SPARTS_MO(site, order) so the verify build's mutation sweep can weaken
// one site at a time to memory_order_relaxed and demand that the model
// checker catches the mutant (docs/static_analysis.md#model-checker).  In
// production the macro expands to exactly `(order)` — the compiled
// operations are identical to writing the order inline.
//
// SPARTS_MO_ADVISORY marks sites whose ordering is *documentation or
// belt-and-braces*, not load-bearing: the sweep asserts these SURVIVE
// weakening (which is what proves the kills at SPARTS_MO sites are real
// signal, not harness noise).  A site may be advisory only with a comment
// explaining which other mechanism carries the proof.
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <utility>

#ifndef SPARTS_MO
#define SPARTS_MO(site, order) (order)
#endif
#ifndef SPARTS_MO_ADVISORY
#define SPARTS_MO_ADVISORY(site, order) (order)
#endif

namespace sparts::common {

/// The production policy: plain std:: types, no instrumentation, no
/// overhead.  Every policy-parameterized primitive defaults to this.
struct StdAtomics {
  template <typename T>
  using Atomic = std::atomic<T>;

  using Mutex = std::mutex;
  using CondVar = std::condition_variable;

  /// Non-atomic slot.  Production: a bare value; the accessors exist so
  /// the verify policy can interpose race detection on the same calls.
  template <typename T>
  class Cell {
   public:
    Cell() = default;
    explicit Cell(T v) : value_(std::move(v)) {}

    void set(T v) { value_ = std::move(v); }
    T take() { return std::move(value_); }
    T& mut() { return value_; }
    const T& get() const { return value_; }

   private:
    T value_;
  };

  static void fence(std::memory_order order) {
    std::atomic_thread_fence(order);
  }
};

}  // namespace sparts::common
