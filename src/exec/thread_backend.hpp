// The real multithreaded backend: each rank is a std::thread, and its
// messages arrive through an exec::Inbox (exec/inbox.hpp): per-source
// lock-free SPSC rings, with a locked spill queue for a full ring (and for
// every message above Inbox::kMaxRingRanks ranks).
//
// Message path:
//   * send() pushes into the destination's ring for this source — no lock,
//     no allocation beyond the payload capture — and wakes the receiver
//     only if it advertised that it is parked.  A full ring spills under
//     the receiver's park mutex, so send() never blocks (buffered-send).
//   * send_owned() is the zero-copy lane: the payload buffer itself moves
//     through the ring, so the backend copies zero bytes for large panels
//     (ProcStats::bytes_copied counts what the copy lane still copies).
//   * recv() drains the rings into the inbox's pending list and matches
//     (src|kAnySource, tag) there; with no match it spins briefly
//     (yield-based: on an oversubscribed host the sender needs the core),
//     then parks on the mailbox condvar with a Dekker-style seq_cst
//     handshake against the sender's wakeup check so no wakeup is lost
//     (exec/parking.hpp).
// Ranks get exec::WallProcess (exec/wall_process.hpp) over this backend's
// transport: the compute/send/idle accounting, counts, comm trace spans
// and metrics live there; this file keeps the mailboxes (inbox plus
// parking slot), the wake protocol and the run loop.
//
// Failure handling mirrors simpar::Machine: an exception on one rank
// aborts the run (waiting ranks unwind with a secondary DeadlockError) and
// run() rethrows the root cause by rank order.  A genuine deadlock — every
// peer finished, or no matching message within `recv_timeout` seconds —
// also raises DeadlockError rather than hanging the process.
#pragma once

#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <vector>

#include "exec/inbox.hpp"
#include "exec/parking.hpp"
#include "exec/process.hpp"

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
  };

  explicit ThreadBackend(const Config& config);

  RunStats run(const std::function<void(Process&)>& spmd) override;
  index_t nprocs() const override { return config_.nprocs; }
  const CostModel& cost() const override { return config_.cost; }
  const Topology& topology() const override { return topology_; }

 private:
  friend class WallProcess<ThreadBackend>;

  struct Mailbox {
    explicit Mailbox(index_t nprocs) : inbox(nprocs) {}
    Inbox inbox;
    /// The mutex+condvar+waiting-flag Dekker handshake (exec/parking.hpp).
    /// park.mutex() is the owner's lock the inbox's spill methods run
    /// under; see take_match for the handshake.
    ParkingSlot<> park;
  };

  // --- the transport WallProcess calls (see exec/wall_process.hpp) ---

  /// Push `msg` to rank `dst`: its ring, or the spill queue when full.
  void deliver(index_t dst, ReceivedMessage&& msg);

  /// Remove and return a message for `rank` matching
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
