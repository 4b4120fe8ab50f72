// The real multithreaded backend: each rank is a std::thread and messages
// move through per-(src,dst) lock-free SPSC rings with a mutex+condvar
// mailbox as the overflow/parking fallback.
//
// Message path (see also spsc_ring.hpp):
//   * send() pushes into the destination's ring for this source — no lock,
//     no allocation beyond the payload capture — and wakes the receiver
//     only if it advertised that it is parked.  A full ring spills to the
//     locked fallback queue, so send() never blocks (buffered-send).
//   * send_owned() is the zero-copy lane: the payload buffer itself moves
//     through the ring, so the backend copies zero bytes for large panels
//     (ProcStats::bytes_copied counts what the copy lane still copies).
//   * recv() drains the rings into a consumer-private pending list and
//     matches (src|kAnySource, tag) there; with no match it spins briefly
//     (yield-based: on an oversubscribed host the sender needs the core),
//     then parks on the mailbox condvar with a Dekker-style seq_cst
//     handshake against the sender's wakeup check so no wakeup is lost.
//     Per-source arrival order is preserved; cross-source order among
//     matches is whatever the drain observed, which the Process contract
//     permits (the repo's tag discipline keeps in-flight (src,dst,tag)
//     unique, so matching is unambiguous anyway).
// Ranks get exec::WallProcess (exec/wall_process.hpp) over this backend's
// transport: the compute/send/idle accounting, counts, comm trace spans
// and metrics live there; this file keeps the rings, the mailboxes and
// the parking protocol.
//
// Failure handling mirrors simpar::Machine: an exception on one rank
// aborts the run (waiting ranks unwind with a secondary DeadlockError) and
// run() rethrows the root cause by rank order.  A genuine deadlock — every
// peer finished, or no matching message within `recv_timeout` seconds —
// also raises DeadlockError rather than hanging the process.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/parking.hpp"
#include "exec/process.hpp"
#include "exec/spsc_ring.hpp"

namespace sparts::exec {

template <class Transport>
class WallProcess;

class ThreadBackend final : public Comm {
 public:
  struct Config {
    index_t nprocs = 1;
    /// Carried only as a hint source (panel_flop etc.); the threaded
    /// backend never charges model time.
    CostModel cost{};
    TopologyKind topology = TopologyKind::fully_connected;
    /// A recv() with no match for this long is declared a deadlock.
    double recv_timeout = 60.0;
    /// Use the SPSC ring fast path (false = every message through the
    /// locked fallback mailbox; SPARTS_SPSC=off flips the default —
    /// bench_msgpath uses this for its before/after columns).
    bool use_spsc = true;
  };

  explicit ThreadBackend(const Config& config);

  RunStats run(const std::function<void(Process&)>& spmd) override;
  index_t nprocs() const override { return config_.nprocs; }
  const CostModel& cost() const override { return config_.cost; }
  const Topology& topology() const override { return topology_; }

 private:
  friend class WallProcess<ThreadBackend>;

  struct Mailbox {
    // --- consumer-private (only the owning rank's thread touches it) ---
    std::deque<ReceivedMessage> pending;  ///< drained, not-yet-matched
    // --- shared fallback path --------------------------------------
    /// The mutex+condvar+waiting-flag Dekker handshake, extracted to
    /// exec/parking.hpp so the model checker can verify the protocol.
    /// park.mutex() guards `queue`; see take_match for the handshake.
    ParkingSlot<> park;
    std::deque<ReceivedMessage> queue;  ///< ring overflow / rings-off path
    /// queue.size(), maintained under park.mutex() but readable without
    /// it: lets the SPSC poll path (try_recv / poll_wait) skip the lock
    /// entirely when the fallback queue is empty — which it almost
    /// always is when the rings are on.
    std::atomic<std::size_t> queue_size{0};
    /// One SPSC ring per source rank; null when the fast path is off.
    std::unique_ptr<SpscRing<ReceivedMessage>[]> rings;
    /// Producer-set "ring src may be nonempty" bitmask (bit src&63 of
    /// word src>>6; 2 words cover kMaxRingRanks sources).  Senders
    /// fetch_or their bit after a ring push; the consumer exchange(0)'s
    /// each word in drain_rings and visits only flagged rings, making a
    /// drain O(active sources) instead of O(p).  A stale set bit costs
    /// one empty-ring check; a pushed-but-unset bit cannot be observed
    /// (the fetch_or is seq_cst and precedes the sender's park probe).
    std::atomic<std::uint64_t> ring_hint[2]{};
  };

  // --- the transport WallProcess calls (see exec/wall_process.hpp) ---

  /// Push `msg` to rank `dst`: ring fast path, locked queue fallback.
  void deliver(index_t dst, ReceivedMessage&& msg);

  /// Remove and return a pending/queued message for `rank` matching
  /// (src|kAnySource, tag); blocks until one exists.  Throws DeadlockError
  /// on abort, timeout, or when no live peer can still send one.
  ReceivedMessage take_match(index_t rank, index_t src, int tag);

  /// Non-blocking variant: pop a match if one is available right now.
  /// Throws DeadlockError when the run has been aborted (a crashed rank
  /// must not leave pollers spinning on a dead run).
  bool take_match_now(index_t rank, index_t src, int tag,
                      ReceivedMessage* out);

  /// Wait up to `seconds` on the rank's mailbox; wakes early on message
  /// delivery, peer exit, or abort (abort throws, as above).
  void poll_wait(index_t rank, double seconds);

  /// Briefly acquire and release every mailbox lock, then notify: ensures
  /// ranks mid-predicate-check cannot miss an abort / peer-exit signal.
  void wake_all_mailboxes();

  /// Consumer side: move everything from `mb`'s rings into pending.
  bool drain_rings(Mailbox& mb);
  /// Consumer side, under mb.mutex: splice the fallback queue into pending.
  bool drain_queue_locked(Mailbox& mb);

  Config config_;
  Topology topology_;

  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::exception_ptr> errors_;
  std::atomic<bool> aborted_{false};
  std::atomic<index_t> active_{0};  ///< ranks still inside spmd()
  std::chrono::steady_clock::time_point epoch_{};
  bool running_ = false;
};

}  // namespace sparts::exec
