// The Dekker-style park/wake handshake of the thread backend's mailboxes:
// a rank parks on its slot when its exec::Inbox (inbox.hpp) holds no
// match, and a sender wakes it.  Extracted from thread_backend.cpp so the
// exact protocol lines are verifiable under the src/verify model checker.
//
// Roles:
//   * The OWNER (consumer) of a slot parks on the condvar when it runs out
//     of work.  Before parking it must, UNDER mutex(): arm(), then re-check
//     every lock-free work source, and only then park_*().  arm() stores
//     the waiting flag and issues a seq_cst fence, so the re-check's loads
//     are ordered after the flag publish.
//   * A PRODUCER that publishes work through a lock-free path (ring push)
//     calls notify_if_armed(): seq_cst fence, then probe-and-claim the
//     waiting flag, then a notify pinned by an empty lock/unlock of
//     mutex().
//
// Why no wakeup can be lost (the claim the model checker re-proves on
// every interleaving, tests/test_verify.cpp):
//   The owner's `waiting=true` store is sequenced before its fence F1;
//   the producer's work publish is sequenced before its fence F2, which
//   is sequenced before its waiting probe.  seq_cst fences are totally
//   ordered: if F1 < F2 the producer's probe must observe waiting==true
//   and the claimer notifies; if F2 < F1 the owner's post-arm re-check
//   must observe the published work and the owner never parks.  The
//   pinned {lock; unlock;} before notify_one() forces the notify after
//   the owner — which holds mutex() from arm() until park — has actually
//   entered the condvar wait, closing the arm-to-park window.  Edge-
//   triggered claiming (exchange false) means a message burst pays one
//   futex wake per park, not per message; the claim cannot drop a wakeup
//   because the claimer always notifies and a re-parking owner re-arms
//   before its re-check.
//
//   Producers that publish UNDER mutex() (the inbox's spill queue) don't
//   need the fence or the pin — the mutex serializes their publish
//   against the owner's arm+re-check — so they use the cheaper
//   notify_if_armed_locked_publish().
//
// The memory_order sites are spelled through SPARTS_MO / SPARTS_MO_ADVISORY
// (common/atomics_policy.hpp): the two fences are the load-bearing sites
// (the mutation sweep proves weakening either one loses a wakeup); the
// flag store's seq_cst and the claim exchange's seq_cst are advisory —
// the fences and RMW atomicity carry the proof — and the sweep asserts
// they survive weakening.
#pragma once

#include <atomic>
#include <chrono>
#include <mutex>

#include "common/atomics_policy.hpp"

namespace sparts::exec {

template <typename Policy = common::StdAtomics>
class ParkingSlot {
 public:
  using MutexT = typename Policy::Mutex;

  ParkingSlot() = default;
  ParkingSlot(const ParkingSlot&) = delete;
  ParkingSlot& operator=(const ParkingSlot&) = delete;

  /// The mutex that serializes arm/park against locked-publish producers.
  /// Callers lock it around their pre-park drain + arm() + park_*().
  MutexT& mutex() { return mutex_; }

  /// Owner, under mutex(): advertise the imminent park.  The caller MUST
  /// re-check all lock-free work sources after this call and before
  /// parking — the fence orders that re-check after the flag publish,
  /// which is the owner's half of the Dekker handshake.
  void arm() {
    // seq_cst on the store is advisory (kept from the original backend
    // code as belt-and-braces): the fence below orders the publish, and
    // the sweep proves a relaxed store still loses no wakeups.
    waiting_.store(true, SPARTS_MO_ADVISORY(park_arm_store,
                                            std::memory_order_seq_cst));
    Policy::fence(SPARTS_MO(park_arm_fence, std::memory_order_seq_cst));
  }

  /// Owner: withdraw the advertisement (on finding work, on waking, or on
  /// an error path).  Relaxed: a producer that still claims the stale flag
  /// merely pays one spurious notify.
  void disarm() {
    waiting_.store(false,
                   SPARTS_MO(park_disarm_store, std::memory_order_relaxed));
  }

  /// Owner, with `lock` held on mutex(): park until `deadline` or a
  /// notify.  Spurious wakeups are allowed — callers loop and re-check
  /// (which is also why the wait deliberately takes no predicate).
  template <typename ClockT, typename Duration>
  void park_until(std::unique_lock<MutexT>& lock,
                  const std::chrono::time_point<ClockT, Duration>& deadline) {
    // NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions): callers own
    // the re-check loop; a predicate here could not see their work sources.
    cv_.wait_until(lock, deadline);
  }

  /// Owner, with `lock` held on mutex(): park for `duration` or a notify.
  template <typename Rep, typename Period>
  void park_for(std::unique_lock<MutexT>& lock,
                const std::chrono::duration<Rep, Period>& duration) {
    // NOLINTNEXTLINE(bugprone-spuriously-wake-up-functions): as above.
    cv_.wait_for(lock, duration);
  }

  /// Producer, after a LOCK-FREE work publish (ring push): wake the owner
  /// iff it advertised a park, claiming the flag so a burst pays one wake.
  /// Returns whether this call claimed (and notified).
  bool notify_if_armed() {
    Policy::fence(SPARTS_MO(park_notify_fence, std::memory_order_seq_cst));
    if (!try_claim()) return false;
    // Pin the notify after the owner's park: the owner holds mutex() from
    // arm() until the wait releases it, so this empty critical section
    // cannot complete while the owner is between re-check and park.
    { std::lock_guard<MutexT> lock(mutex_); }
    cv_.notify_one();
    return true;
  }

  /// Producer, after a publish made UNDER mutex(): the mutex already
  /// serialized the publish against the owner's arm+re-check, so no fence
  /// and no pin are needed — the publish's critical section either
  /// completed before the owner's (owner sees the work) or after the
  /// owner entered the wait (notify lands).
  bool notify_if_armed_locked_publish() {
    if (!try_claim()) return false;
    cv_.notify_one();
    return true;
  }

  /// Broadcast, pinned: used for abort/peer-exit signals that must not be
  /// missed by an owner mid-predicate-check.
  void notify_all() {
    { std::lock_guard<MutexT> lock(mutex_); }
    cv_.notify_all();
  }

 private:
  /// Probe-then-claim the waiting flag.  The relaxed probe keeps the
  /// not-parked fast path to one load; the exchange's seq_cst is advisory
  /// — claim exclusivity rests on RMW atomicity (an RMW always operates
  /// on the latest value in the modification order), and visibility of
  /// the owner's arm rests on the callers' fence or mutex.
  bool try_claim() {
    return waiting_.load(SPARTS_MO(park_claim_probe,
                                   std::memory_order_relaxed)) &&
           waiting_.exchange(false, SPARTS_MO_ADVISORY(
                                        park_claim_exchange,
                                        std::memory_order_seq_cst));
  }

  MutexT mutex_;
  typename Policy::CondVar cv_;
  typename Policy::template Atomic<bool> waiting_{false};
};

}  // namespace sparts::exec
