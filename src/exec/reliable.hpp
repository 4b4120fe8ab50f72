// The reliability envelope: at-least-once delivery with receiver-side
// deduplication over any exec backend.
//
// ReliableBackend is a Comm decorator (like CheckedBackend and
// FaultyBackend).  Every data send keeps its user tag but carries a small
// wire trailer with a per-(dst, tag) sequence number and is buffered for
// retransmission until the run ends; every recv becomes a polling loop
// built on Process::try_recv / poll_wait that
//
//   * discards duplicates (same (src, tag, seq) seen before),
//   * after `timeout` seconds without the expected message sends a NACK
//     on the reserved control tag (exec::kCtrlTag) to the source (all
//     peers for a wildcard recv), asking it to retransmit everything it
//     sent on that (dst, tag) edge, and
//   * retries with capped exponential backoff up to `max_retry` times
//     before throwing TimeoutError with a per-rank progress report
//     attached — a deadline-based abort instead of a hang.  The cap
//     matters: a NACK for a frame the sender has not produced yet is a
//     no-op, so when the sender is itself blocked upstream (a cascaded
//     delay) pure exponential backoff would burn nearly the whole retry
//     budget on those useless early rounds and leave one or two rare
//     late rounds that a lossy network can swallow whole.
//
// When the SPMD body returns, the rank broadcasts FIN on the control tag
// and lingers (bounded by `fin_timeout`), servicing NACKs for messages it
// sent late in its life, until every peer's FIN arrives.  Each serviced
// NACK resets the linger clock — a peer actively requesting retransmits
// is proof this rank is still needed.  This closes the classic tail
// window where a dropped final message could never be retransmitted
// because its sender had already exited.
//
// The envelope changes simulated timings (polling advances the virtual
// clock), so the solver applies it only under a fault plan
// (solver::Options::faults) and on the proc backend's real wire; plain
// sim, threads and tasks runs carry no envelope.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/process.hpp"

namespace sparts::exec {

/// Tuning knobs of the envelope.  `from_env()` applies the
/// SPARTS_TIMEOUT_MS and SPARTS_MAX_RETRY environment variables on top of
/// whatever defaults the caller picked (see docs/robustness.md).
struct ReliableConfig {
  /// Seconds of backend time a recv waits before its first NACK.
  double timeout = 0.05;
  /// Multiplier applied to the wait after every NACK.
  double backoff = 2.0;
  /// Cap on the backed-off wait, as a multiple of `timeout`.  Pure
  /// exponential backoff wastes the early rounds when the sender is
  /// itself blocked upstream (a cascaded delay) and leaves too few late
  /// rounds to survive message drops; the cap keeps late NACK rounds
  /// evenly spaced.  <= 1 disables the cap.
  double backoff_cap = 8.0;
  /// NACKs sent before a recv gives up with TimeoutError.
  int max_retry = 20;
  /// Polling granularity; <= 0 picks timeout / 16.
  double poll_tick = -1.0;
  /// Bound on the post-body FIN linger; <= 0 picks the full retry horizon
  /// (sum of every peer's backed-off waits, plus one timeout) so a
  /// finished sender outlives the last NACK a blocked peer can send.
  double fin_timeout = -1.0;

  /// Defaults scaled for simulated seconds (message latencies ~1e-5 s
  /// under the T3D cost model).
  static ReliableConfig for_simulated();
  /// Defaults scaled for wall-clock seconds on the thread and task
  /// backends.
  static ReliableConfig for_threads();
  /// Defaults scaled for a real wire (the socket backend): the timeout
  /// is derived from the measured per-peer heartbeat RTT
  /// (SocketBackend::measured_rtt), clamped to [2 ms, 0.5 s].  Override
  /// order, lowest to highest precedence: this derived default, then
  /// SPARTS_TIMEOUT_MS / SPARTS_MAX_RETRY via from_env(), then any
  /// explicit field assignment by the caller (docs/robustness.md).
  static ReliableConfig for_wire(double rtt_seconds);
  /// Apply SPARTS_TIMEOUT_MS / SPARTS_MAX_RETRY overrides and return self.
  ReliableConfig& from_env();
};

/// Envelope activity, aggregated over all ranks of the last run.
struct ReliableStats {
  std::int64_t data_sends = 0;
  std::int64_t retransmits = 0;
  std::int64_t dup_discarded = 0;
  std::int64_t nacks_sent = 0;
  std::int64_t timeouts = 0;
  std::string summary() const;
};

/// What one rank had achieved when the run ended (normally or not);
/// rendered into TimeoutError messages and solver::SolveError reports.
struct RankProgress {
  std::int64_t sends = 0;
  std::int64_t recvs = 0;
  std::int64_t retransmits = 0;
  std::int64_t dup_discarded = 0;
  bool finished = false;     ///< SPMD body ran to completion
  std::string note;          ///< last exec::note_progress() annotation
  std::string last_wait;     ///< "src=.. tag=.." if the rank died waiting
};

class ReliableBackend final : public ForwardingComm {
 public:
  ReliableBackend(std::unique_ptr<Comm> inner, ReliableConfig config);
  ~ReliableBackend() override;

  RunStats run(const std::function<void(Process&)>& spmd) override;

  const ReliableConfig& config() const { return config_; }
  /// Envelope totals of the most recent run().
  const ReliableStats& stats() const { return stats_; }
  /// Per-rank progress of the most recent run().
  const std::vector<RankProgress>& progress() const { return progress_; }
  /// Multi-line per-rank progress report (one line per rank).
  std::string progress_report() const;

  class ReliableProcess;

 private:
  friend class ReliableProcess;

  void merge(index_t rank, const ReliableStats& stats,
             const RankProgress& prog);

  ReliableConfig config_;
  ReliableStats stats_;
  std::vector<RankProgress> progress_;
  std::mutex mutex_;
};

/// Attach a short progress annotation ("fw supernode 12", "panel 3/8") to
/// the calling rank if it runs under the reliability envelope; a no-op on
/// every other backend.  Solver code calls this so a timeout or crash
/// report can say *where* each rank was.
void note_progress(Process& proc, const std::string& note);

/// note_progress for per-supernode loops: built once per rank body, it
/// resolves up front whether the rank runs under the envelope (at any
/// depth of the decorator stack, e.g. below the message audit), so note()
/// is a null test on every other backend and builds "<what> <id>" (e.g.
/// "fw supernode 12") only under the envelope.
class ProgressNotes {
 public:
  explicit ProgressNotes(Process& proc);
  void note(const char* what, index_t id) const {
    if (envelope_ != nullptr) set(what, id);
  }

 private:
  void set(const char* what, index_t id) const;
  ReliableBackend::ReliableProcess* envelope_;
};

}  // namespace sparts::exec
