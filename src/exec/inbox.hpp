// One destination rank's incoming traffic on the thread and task backends:
// the message path from a send to the matching recv, written once for both.
//
//   * Rings.  One SpscRing (spsc_ring.hpp) per source rank, so a send
//     pushes into its own ring without a lock and then sets its bit in the
//     hint mask; a drain visits only the rings whose bits are set,
//     O(active sources) rather than O(p).
//   * Spill queue.  A send whose ring is full appends here instead, so a
//     send never blocks.  Rings cost O(p^2) per run, so above kMaxRingRanks
//     an inbox has none and every message takes this path.  The spill
//     methods run under the owner's lock (the lock its backend's wake
//     protocol already serializes on), so a spill needs no fence.
//   * Pending list.  Messages the owner drained but has not matched yet,
//     private to the owner.  match() takes the first one carrying the
//     requested (src|kAnySource, tag); the repo's tag discipline keeps
//     every in-flight (src, dst, tag) unique, so the order in which drains
//     append does not change which message a recv gets.
//
// The wake protocol stays with each backend: ThreadBackend parks the
// owner's thread on a ParkingSlot (parking.hpp), TaskBackend suspends the
// owner's fiber.  Both rest on one ordering fact of try_push_ring: its
// hint fetch_or is seq_cst and follows the ring publish.  So a sender
// whose "is the owner parked?" probe is ordered after it in the seq_cst
// total order (a seq_cst load, or a seq_cst fence and then the load), and
// an owner that marks itself parked, issues a seq_cst fence and then
// drains, cannot both miss each other: the sender wakes the owner, or the
// owner's drain finds the message.
//
// The producer side (try_push_ring, spill_locked) may run on any sender;
// everything else belongs to the owner — its thread, or on the task
// backend whichever worker holds its suspended fiber (the scheduler hands
// a fiber to one executor at a time, which keeps each ring SPSC).
#pragma once

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <utility>

#include "exec/process.hpp"
#include "exec/spsc_ring.hpp"
#include "obs/metrics.hpp"

namespace sparts::exec {

/// The pending-list matcher: find the first message in `pending` from
/// `src` (or any source) carrying `tag`.  With `out` set, move it there
/// and erase it; with out == nullptr only report whether one exists.
inline bool match_pending(std::deque<ReceivedMessage>& pending, index_t src,
                          int tag, ReceivedMessage* out) {
  for (auto it = pending.begin(); it != pending.end(); ++it) {
    if (it->tag == tag && (src == kAnySource || it->source == src)) {
      if (out != nullptr) {
        *out = std::move(*it);
        pending.erase(it);
      }
      return true;
    }
  }
  return false;
}

class Inbox {
 public:
  /// Above this rank count an inbox has no rings.  The hint mask is two
  /// 64-bit words, one bit per possible ring source.
  static constexpr index_t kMaxRingRanks = 128;

  explicit Inbox(index_t nprocs)
      : rings_(nprocs <= kMaxRingRanks
                   ? std::make_unique<SpscRing<ReceivedMessage>[]>(
                         static_cast<std::size_t>(nprocs))
                   : nullptr) {}

  Inbox(const Inbox&) = delete;
  Inbox& operator=(const Inbox&) = delete;

  // --- producer side --------------------------------------------------

  /// Push `msg` into its source's ring and flag that ring in the hint
  /// mask.  Returns false, leaving `msg` intact, when the ring is full or
  /// the inbox has no rings; the caller then spills it.
  bool try_push_ring(ReceivedMessage& msg) {
    const index_t src = msg.source;
    if (rings_ == nullptr ||
        !rings_[static_cast<std::size_t>(src)].try_push(msg)) {
      return false;
    }
    // seq_cst, after the push: the ordering fact the wake protocols rest
    // on (see the header comment).
    ring_hint_[src >> 6].fetch_or(std::uint64_t{1} << (src & 63),
                                  std::memory_order_seq_cst);
    if (obs::metrics_enabled()) {
      obs::metrics().counter("msgpath.ring_hit").add(1);
    }
    return true;
  }

  /// Append `msg` to the spill queue.  Caller holds the owner's lock.
  void spill_locked(ReceivedMessage&& msg) {
    spill_.push_back(std::move(msg));
    spill_size_.store(spill_.size(), std::memory_order_release);
    if (obs::metrics_enabled()) obs::metrics().counter("msgpath.spill").add(1);
  }

  // --- owner side -----------------------------------------------------

  /// Move every flagged ring's messages into the pending list; lock-free.
  /// exchange(0) claims a whole hint word: a bit set during the drain is
  /// either served now (its item is popped anyway) or on the next drain,
  /// and a stale bit costs one empty try_pop.  A relaxed probe skips the
  /// exchange of an empty word, so a drain that finds nothing takes no
  /// locked instruction.  The probe cannot hide a message from a parking
  /// owner: that drain follows the owner's seq_cst fence, so it sees every
  /// fetch_or ordered before that fence, and the sender of any later one
  /// sees the owner parked.
  bool drain_rings() {
    bool any = false;
    ReceivedMessage m;
    for (std::size_t w = 0; w < 2; ++w) {
      if (ring_hint_[w].load(std::memory_order_relaxed) == 0) continue;
      std::uint64_t bits =
          ring_hint_[w].exchange(0, std::memory_order_seq_cst);
      while (bits != 0) {
        const std::size_t s =
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        bits &= bits - 1;
        while (rings_[s].try_pop(&m)) {
          pending_.push_back(std::move(m));
          any = true;
        }
      }
    }
    return any;
  }

  /// Move the spill queue into the pending list.  Caller holds the
  /// owner's lock.
  bool drain_spill_locked() {
    if (spill_.empty()) return false;
    while (!spill_.empty()) {
      pending_.push_back(std::move(spill_.front()));
      spill_.pop_front();
    }
    spill_size_.store(0, std::memory_order_release);
    return true;
  }

  /// Lock-free probe: may the spill queue hold messages?  Lets a poll
  /// skip the owner's lock while nothing has spilled.
  bool spill_nonempty() const {
    return spill_size_.load(std::memory_order_acquire) != 0;
  }

  /// Arrival probe: did a message come in since the owner's last drains?
  /// Only peeks at the hint mask, so the next drain_rings still finds the
  /// flagged rings.  A stale hint bit makes it true at most once more
  /// (the next drain clears it).
  bool has_arrivals() const {
    return spill_nonempty() ||
           ring_hint_[0].load(std::memory_order_seq_cst) != 0 ||
           ring_hint_[1].load(std::memory_order_seq_cst) != 0;
  }

  /// Take the first pending message matching (src|kAnySource, tag) into
  /// `out`; with out == nullptr only report whether one is pending.
  bool match(index_t src, int tag, ReceivedMessage* out) {
    return match_pending(pending_, src, tag, out);
  }

 private:
  static_assert(kMaxRingRanks <= 128,
                "the hint mask must cover every ring source rank");

  std::deque<ReceivedMessage> pending_;  ///< owner-private
  std::deque<ReceivedMessage> spill_;    ///< guarded by the owner's lock
  /// spill_.size(), written under the owner's lock, readable without it.
  std::atomic<std::size_t> spill_size_{0};
  /// One ring per source rank; null above kMaxRingRanks.
  std::unique_ptr<SpscRing<ReceivedMessage>[]> rings_;
  /// Bit src&63 of word src>>6: "ring src may be nonempty".
  std::atomic<std::uint64_t> ring_hint_[2]{};
};

}  // namespace sparts::exec
