// Deterministic fault injection for any exec backend.
//
// FaultyBackend is a Comm decorator (the same pattern as CheckedBackend):
// it wraps an inner backend and perturbs the message traffic crossing the
// Process interface according to a seeded FaultPlan — message drop,
// duplication, delay, and reordering, plus one-shot rank stall and rank
// crash events.  Every per-message decision is a pure function of
// (seed, rank, per-rank send counter), so a scenario replays identically
// on the simulator and, up to wall-clock timing, on the thread backend.
//
// Faults are injected *below* the reliability envelope (exec/reliable.hpp)
// in the solver's fault stack (solver::Options::faults), so the envelope
// sees drops/dups/delays and must recover from them; control traffic
// (nacks/fins) passes through the fault layer too and can itself be lost,
// which is what the bounded-retry budget is for.
//
// Delay semantics: a delayed message is held inside the *sender's* fault
// layer and released on a later envelope operation once the sender's clock
// passes the release time.  A blocking recv() flushes all held messages
// first (a sender blocked in recv can release its queue, avoiding
// self-inflicted deadlocks when no polling consumer runs above).
//
// Crash semantics: the configured rank throws InjectedFault once its
// send+recv operation counter reaches the threshold.  Both backends abort
// the run and rethrow InjectedFault ahead of the secondary unwinds.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "exec/process.hpp"

namespace sparts::exec {

/// A seeded scenario of faults to inject.  Parsed from a compact spec
/// string (tools/sparts_solve --faults, docs/robustness.md):
///
///   seed=42,drop=0.05,dup=0.02,delay=0.1:0.01,reorder=0.05,
///   stall=2@0.5,crash=1@40,max_faults=100
///
/// Probabilities are per data message; delay is prob:seconds; stall is
/// rank@seconds (fires once, at that rank's first operation); crash is
/// rank@op-count.  max_faults caps the total number of injected message
/// faults (drop+dup+delay+reorder) across the run.
struct FaultPlan {
  std::uint64_t seed = 1;
  double drop = 0.0;           ///< P(message silently dropped)
  double dup = 0.0;            ///< P(message delivered twice)
  double delay_prob = 0.0;     ///< P(message held for delay_seconds)
  double delay_seconds = 0.0;
  double reorder = 0.0;        ///< P(message swapped with the next send)
  index_t stall_rank = -1;     ///< -1: no stall
  double stall_seconds = 0.0;
  std::int64_t stall_after = 1;  ///< op count at which the stall fires
  index_t crash_rank = -1;     ///< -1: no crash
  std::int64_t crash_after = 0;  ///< op count at which the crash fires
  std::int64_t max_faults = -1;  ///< cap on injected message faults; -1: no cap

  /// Parse the spec syntax above.  Throws InvalidArgument on unknown keys
  /// or malformed values.
  static FaultPlan parse(const std::string& spec);

  /// One-line human-readable rendering (CLI banner, test logs).
  std::string summary() const;

  bool any_message_faults() const {
    return drop > 0.0 || dup > 0.0 || delay_prob > 0.0 || reorder > 0.0;
  }
};

/// Counts of injected events, aggregated over all ranks of the last run.
struct FaultStats {
  std::int64_t drops = 0;
  std::int64_t dups = 0;
  std::int64_t delays = 0;
  std::int64_t reorders = 0;
  std::int64_t stalls = 0;
  std::int64_t crashes = 0;

  std::int64_t injected() const {
    return drops + dups + delays + reorders + stalls + crashes;
  }
  std::string summary() const;
};

/// Decorator Comm: forwards to an inner backend while injecting the
/// FaultPlan's events into the traffic.
class FaultyBackend final : public ForwardingComm {
 public:
  FaultyBackend(std::unique_ptr<Comm> inner, FaultPlan plan);
  ~FaultyBackend() override;

  RunStats run(const std::function<void(Process&)>& spmd) override;

  /// Injection counts of the most recent run() (zero before the first).
  const FaultStats& stats() const { return stats_; }

 private:
  class FaultyProcess;
  friend class FaultyProcess;

  void merge(const FaultStats& rank_stats);

  FaultPlan plan_;
  FaultStats stats_;
  std::mutex stats_mutex_;
};

}  // namespace sparts::exec
