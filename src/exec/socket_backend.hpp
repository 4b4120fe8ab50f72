// The scale-out process backend: each rank is an OS process and messages
// cross real TCP connections through the framed wire layer (exec/wire.hpp).
//
// SocketBackend implements the same `exec::Comm` contract as the
// simulator, the thread backend, and the task backend — the paper's SPMD
// trisolvers run on it unchanged — but it is the first backend where
// delivery can genuinely fail: bytes get corrupted, connections die, and
// whole peers disappear.  It is therefore robust by construction:
//
//   * Connection establishment retries with capped exponential backoff
//     (wire::connect_with_backoff); rendezvous is either a shared
//     directory of published ephemeral ports (single host) or a hardened
//     `RANK HOST:PORT` rank file (multi-machine).
//   * Every peer is probed with periodic heartbeats.  Suspicion is
//     phi-accrual-style: the threshold adapts to the measured
//     inter-arrival statistics of that peer's traffic (mean + phi·std,
//     floored so one scheduling hiccup cannot fire it), so a dead or
//     wedged peer is detected within a bounded window instead of
//     hanging a recv forever.
//   * A suspected peer surfaces as a structured PeerFailure — failed
//     epoch, suspected rank, last-contact age — on *every* surviving
//     rank (blocked recv/poll/barrier calls all throw it), and a rank
//     whose SPMD body throws broadcasts an ABORT frame so its peers
//     unwind with RemoteAbort naming the origin.  No hangs, no torn
//     solves.
//   * Payload corruption is caught by the wire CRC and recovered by the
//     ReliableBackend envelope stacked on top (the solver composes
//     Reliable(for_wire(rtt)) over this backend); a truncated stream
//     desyncs the connection, which the connecting side transparently
//     re-establishes.
//
// One process hosts ONE rank.  A process-wide SocketSession (created by
// the first SocketBackend, reused by every later one) owns the listener,
// the per-peer connections and their reader/sender threads, and the
// heartbeat/failure detector; each Comm::run() is one session *epoch*,
// and data frames are epoch-tagged so a straggler from phase k can never
// be delivered into phase k+1 (early frames are stashed, stale ones
// dropped).  Every run() ends with a rank-0-star barrier whose entry and
// release frames self-heal (they are re-sent until answered), so a lossy
// network delays the barrier instead of wedging it.  The rank's Process is
// exec::WallProcess over the session (exec/wall_process.hpp): the same
// compute/send/idle accounting as the thread and task backends.
#pragma once

#include <memory>
#include <string>

#include "common/error.hpp"
#include "exec/process.hpp"

namespace sparts::exec {

/// Configuration of the socket backend / session.  from_env() applies
/// SPARTS_HB_MS and SPARTS_SUSPECT_MS on top of the caller's values
/// (override order documented in docs/robustness.md).
struct SocketConfig {
  index_t rank = 0;
  index_t nprocs = 1;
  /// Single-host rendezvous: each rank binds an ephemeral port and
  /// publishes it as <dir>/rank<R>.addr.  Used when `rankfile` is empty.
  std::string rendezvous_dir;
  /// Multi-machine rendezvous: a hardened `RANK HOST:PORT` file
  /// (wire::read_rank_file); this rank listens on its own line's port.
  std::string rankfile;
  /// Seconds between heartbeat probes to each peer.
  double heartbeat_interval = 0.025;
  /// Fixed suspicion threshold in seconds; <= 0 selects the adaptive
  /// phi-accrual-style threshold (mean inter-arrival + phi * std, floored
  /// at max(8 * heartbeat_interval, 0.25 s)).
  double suspect_after = -1.0;
  /// Std-deviation multiplier of the adaptive threshold.
  double phi = 8.0;
  /// Deadline for the initial full-mesh connection setup.
  double connect_timeout = 30.0;
  /// A recv() with no match for this long is declared a deadlock even if
  /// every peer still heartbeats (mirrors ThreadBackend::recv_timeout).
  double recv_timeout = 60.0;
  CostModel cost{};
  TopologyKind topology = TopologyKind::fully_connected;

  SocketConfig& from_env();
};

/// A peer stopped responding: raised on every surviving rank out of
/// blocked recv/poll/barrier calls once the failure detector fires.
class PeerFailure : public Error {
 public:
  PeerFailure(index_t suspected, double last_contact_age,
              std::uint32_t epoch);
  index_t suspected() const { return suspected_; }
  double last_contact_age() const { return age_; }
  std::uint32_t epoch() const { return epoch_; }

 private:
  index_t suspected_;
  double age_;
  std::uint32_t epoch_;
};

/// A peer's SPMD body threw: it broadcast an ABORT frame naming itself
/// and its error, and this rank unwound in response.
class RemoteAbort : public Error {
 public:
  RemoteAbort(index_t origin, const std::string& reason);
  index_t origin() const { return origin_; }

 private:
  index_t origin_;
};

class SocketBackend final : public Comm {
 public:
  /// Creates the process-wide session on first use (connecting the full
  /// mesh, which blocks up to config.connect_timeout); later instances
  /// must carry the same rank/nprocs and reuse it.
  explicit SocketBackend(const SocketConfig& config);
  ~SocketBackend() override;

  /// Runs the *local* rank's SPMD body for one session epoch, ending
  /// with the self-healing rank-0 barrier.  RunStats::procs is sized
  /// nprocs but only this rank's slot is filled — every process owns
  /// exactly one rank.
  RunStats run(const std::function<void(Process&)>& spmd) override;

  index_t nprocs() const override { return config_.nprocs; }
  const CostModel& cost() const override { return config_.cost; }
  const Topology& topology() const override;
  bool distributed() const override { return true; }

  /// Worst (largest) smoothed heartbeat RTT across peers, in seconds;
  /// feeds ReliableConfig::for_wire.  Falls back to 1 ms before the
  /// first ack arrives.
  double measured_rtt() const;

  const SocketConfig& config() const { return config_; }

 private:
  SocketConfig config_;
};

/// Clean session shutdown: sends GOODBYE to every peer (so nobody
/// suspects this rank), flushes outboxes, joins the session threads, and
/// destroys the session.  Call once per process after the last run();
/// idempotent and a no-op when no session exists.  A rank that exits
/// without calling this (a crash, _exit) is what the failure detector is
/// for.
void socket_session_shutdown();

/// True between the first SocketBackend construction and
/// socket_session_shutdown().
bool socket_session_active();

/// Test hook (SPARTS_TEST_KILL): SIGKILL this process after `n` more
/// data sends on the socket backend — lands the kill genuinely
/// mid-sweep.  n <= 0 disarms.
void socket_test_kill_after(int n);

}  // namespace sparts::exec
