// The checked execution backend: a decorator over any Comm that watches
// every send/recv crossing the Process interface and reports message-
// passing hazards that the underlying backend would silently tolerate.
//
// The checker maintains one vector clock per rank (ticked on every send
// and recv, joined into the receiver on every match) and a per-edge
// (src, dst, tag) FIFO of in-flight sends.  Both backends deliver
// messages FIFO per (src, dst, tag) — queue order on threads, arrival
// time with a deterministic tie-break on the simulator — so the front of
// the checker's FIFO is always the message the inner backend hands back.
//
// Findings:
//   * wildcard_race   — a recv(kAnySource, tag) whose matched send is
//     concurrent (vector-clock incomparable) with a send of the same tag
//     to the same rank from a *different* source.  Which message wins is
//     schedule-dependent.  Detected both online (another matchable
//     message pending at match time) and in a post-run happens-before
//     pass, so the sequential simulator — which may never have two
//     messages pending at once — still reports the race deterministically.
//   * tag_collision   — a send on an edge whose (src, dst, tag) FIFO is
//     already non-empty.  Legal under the contract (FIFO order holds) but
//     it means the tag does not uniquely identify a message in flight;
//     flagged because the solver's tag discipline promises one message
//     per (edge, tag) at a time.
//   * orphaned_send   — messages still in flight when the run ends:
//     sent, never received.
//   * deadlock_cycle  — when the inner backend declares a deadlock, the
//     checker snapshots which (src, tag) every rank is blocked on, walks
//     the wait-for graph, and reports any cycle together with each
//     involved rank's recent operations.  The rethrown DeadlockError
//     message is enriched with the same context.
//
// A run with Options::throw_on_findings set throws AnalysisError at the
// end of run() if any finding was recorded.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exec/process.hpp"

namespace sparts::exec {

/// One hazard discovered by the checked backend.  Findings are
/// deduplicated on (kind, src, dst, tag); `count` is how many concrete
/// occurrences were merged into this record.
struct Finding {
  enum class Kind {
    wildcard_race,
    tag_collision,
    orphaned_send,
    deadlock_cycle,
  };

  Kind kind = Kind::wildcard_race;
  index_t src = -1;  ///< sending rank (or a cycle member for deadlocks)
  index_t dst = -1;  ///< receiving rank
  int tag = 0;
  std::int64_t count = 1;
  std::string detail;  ///< human-readable diagnosis with ranks and tags
};

const char* to_string(Finding::Kind kind);

/// Everything the checker learned from one run().
struct AnalysisReport {
  std::vector<Finding> findings;
  std::int64_t sends = 0;
  std::int64_t recvs = 0;
  std::int64_t wildcard_recvs = 0;
  /// True if the finding-deduplication table hit Options::max_findings
  /// and later findings were dropped.
  bool findings_truncated = false;
  /// True if the send history kept for the post-run happens-before pass
  /// hit Options::max_history and the race pass is incomplete.
  bool history_truncated = false;

  bool clean() const { return findings.empty(); }
  std::int64_t count(Finding::Kind kind) const;
  /// Multi-line human-readable report (one line per finding plus totals).
  std::string summary() const;
};

/// Decorator Comm: forwards to an inner backend and checks the traffic.
class CheckedBackend final : public ForwardingComm {
 public:
  struct Options {
    /// Cap on distinct (kind, src, dst, tag) findings kept.
    std::size_t max_findings = 256;
    /// Per-rank recent-operation ring buffer depth (deadlock context).
    std::size_t trace_depth = 8;
    /// Cap on send records kept for the post-run happens-before pass.
    std::size_t max_history = 1 << 20;
    /// Throw AnalysisError from run() if the report is not clean.
    bool throw_on_findings = false;
  };

  /// Wrap a borrowed backend (caller keeps ownership and lifetime).
  explicit CheckedBackend(Comm& inner);
  CheckedBackend(Comm& inner, Options options);
  /// Wrap and own a backend.
  explicit CheckedBackend(std::unique_ptr<Comm> inner);
  CheckedBackend(std::unique_ptr<Comm> inner, Options options);
  ~CheckedBackend() override;

  RunStats run(const std::function<void(Process&)>& spmd) override;

  /// Report of the most recent run() (empty before the first run).
  const AnalysisReport& report() const { return report_; }

 private:
  class CheckedProcess;
  struct Checker;

  Options options_;
  std::unique_ptr<Checker> checker_;  ///< live during run()
  AnalysisReport report_;
};

}  // namespace sparts::exec
