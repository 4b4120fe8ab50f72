// Lock-free bounded single-producer/single-consumer ring, the fast path
// of exec::Inbox (inbox.hpp), the message inbox of the thread and task
// backends.
//
// One ring exists per (src, dst) rank pair, which is what makes it truly
// SPSC: the only producer is the source rank and the only consumer the
// destination rank.  (On the task backend a rank's fiber migrates between
// workers, but it executes on one worker at a time with happens-before
// edges supplied by the scheduler, so the single-logical-producer/
// consumer requirement still holds.)
//
// Memory ordering is the textbook pair: the producer publishes a slot
// with a release store of tail_, the consumer acquires tail_ before
// reading the slot, and symmetrically for head_ so the producer never
// overwrites a slot still being moved out.  head_ and tail_ live on
// separate cache lines so the two sides don't false-share.
//
// The ring is a fast path, not a contract: try_push may fail when the
// ring is full (the inbox then spills the message to its locked queue so
// send() never blocks), and the element is NOT consumed on failure.
//
// The ring is parameterized on an atomics policy (common/atomics_policy.hpp)
// so the exact same lines run under the src/verify model checker, which
// exhaustively explores the interleavings of these four memory_order sites
// and flags any weakening (tests/test_verify_mutations.cpp sweeps them).
// Production instantiations use StdAtomics and compile to the identical
// operations the hand-written orders did.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/atomics_policy.hpp"

namespace sparts::exec {

template <typename T, typename Policy = common::StdAtomics>
class SpscRing {
 public:
  /// Capacity is fixed at construction and must be a power of two.
  explicit SpscRing(std::size_t capacity = kDefaultCapacity)
      : slots_(capacity), mask_(capacity - 1) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  /// Producer side.  Returns false (leaving `v` intact) when full.
  bool try_push(T& v) {
    const std::size_t tail =
        tail_.load(SPARTS_MO(spsc_push_tail_read, std::memory_order_relaxed));
    // Acquire pairs with the consumer's head release: it orders the
    // consumer's move-out of the slot before our overwrite of it, which
    // is what makes slot reuse after wraparound race-free.
    const std::size_t head =
        head_.load(SPARTS_MO(spsc_push_head_acquire, std::memory_order_acquire));
    if (tail - head >= slots_.size()) return false;
    slots_[tail & mask_].set(std::move(v));
    // Release publishes the slot write above: a consumer that acquires
    // this tail value is guaranteed to see the element, not a torn or
    // stale slot.
    tail_.store(tail + 1,
                SPARTS_MO(spsc_push_tail_release, std::memory_order_release));
    return true;
  }

  /// Consumer side.  Returns false when empty.
  bool try_pop(T* out) {
    const std::size_t head =
        head_.load(SPARTS_MO(spsc_pop_head_read, std::memory_order_relaxed));
    // Acquire pairs with the producer's tail release (slot visibility).
    const std::size_t tail =
        tail_.load(SPARTS_MO(spsc_pop_tail_acquire, std::memory_order_acquire));
    if (head == tail) return false;
    *out = slots_[head & mask_].take();
    // Release publishes the move-out: a producer that acquires this head
    // value may safely reuse the slot.
    head_.store(head + 1,
                SPARTS_MO(spsc_pop_head_release, std::memory_order_release));
    return true;
  }

  /// CONSUMER-side occupancy probe: may the consumer's next try_pop
  /// succeed?  Loads the *other* side's cursor (tail_) with acquire and
  /// its own cursor (head_) relaxed — only the consumer mutates head_, so
  /// it always reads its own latest value.  `true` is a guarantee (the
  /// element stays until the consumer pops it); `false` may be stale.
  ///
  /// The acquire on tail_ is advisory, not load-bearing: try_pop performs
  /// its own acquire before touching the slot, and per-object coherence
  /// already forbids try_pop from reading an older tail than this probe
  /// did, so a `true` here cannot strand the consumer.  It is kept so a
  /// caller that probes and then reads ring state directly (rather than
  /// through try_pop) is also ordered; the mutation sweep asserts the
  /// weakened form still verifies.
  bool has_items() const {
    return tail_.load(SPARTS_MO_ADVISORY(spsc_has_items_tail_acquire,
                                         std::memory_order_acquire)) !=
           head_.load(SPARTS_MO(spsc_has_items_head_read,
                                std::memory_order_relaxed));
  }

  /// PRODUCER-side vacancy probe: may the producer's next try_push
  /// succeed?  Mirror image of has_items(): the other side's cursor
  /// (head_) takes the acquire, the producer's own cursor (tail_) is
  /// relaxed.  `true` is a guarantee; `false` may be stale.  (Before this
  /// split a single probe served both sides with the orderings oriented
  /// for the consumer only — a producer calling it acquired its *own*
  /// cursor and read the consumer's relaxed, i.e. exactly backwards.)
  ///
  /// Advisory for the same reason as has_items(): try_push re-acquires
  /// head_ itself.
  bool has_space() const {
    return tail_.load(SPARTS_MO(spsc_has_space_tail_read,
                                std::memory_order_relaxed)) -
               head_.load(SPARTS_MO_ADVISORY(spsc_has_space_head_acquire,
                                             std::memory_order_acquire)) <
           slots_.size();
  }

  /// Deliberately small: the ring is a latency device, not a buffer.  A
  /// deep ring means a message burst walks p x capacity cold slots (each
  /// push/pop touching a line the cache already evicted), and measured
  /// end-to-end solve times on burst-heavy etrees get *worse* as the
  /// ring grows; bursts beyond this depth spill to the locked fallback
  /// queue, which amortizes one mutex + one wakeup over the whole batch.
  static constexpr std::size_t kDefaultCapacity = 8;

  /// Test-only seam: start both cursors at `start` so the unsigned
  /// wraparound arithmetic (`tail - head` across SIZE_MAX) is exercisable
  /// without 2^64 pushes.  Callers must be quiescent (no concurrent
  /// producer/consumer) — it exists for tests/test_msgpath.cpp only.
  void reset_cursors_for_test(std::size_t start) {
    head_.store(start, std::memory_order_relaxed);
    tail_.store(start, std::memory_order_relaxed);
  }

 private:
  template <typename U>
  using Cell = typename Policy::template Cell<U>;

  std::vector<Cell<T>> slots_;
  std::size_t mask_;
  alignas(64) typename Policy::template Atomic<std::size_t> head_{
      0};  ///< consumer cursor
  alignas(64) typename Policy::template Atomic<std::size_t> tail_{
      0};  ///< producer cursor
};

}  // namespace sparts::exec
