// Critical-path analysis over the *executed* task DAG.
//
// `TaskGraph::analyze()` reports the cost-model critical path — what the
// schedule could cost if the flop estimates were exact.  This module
// answers the measured question instead: given the spans that actually
// ran (with real start/end times) and the dependency edges between them,
// what was T1 (total work), T∞ (the longest dependent chain, i.e. the
// floor on any schedule), and how close did the measured makespan come
// to the greedy-scheduler bound T1/p + T∞?  ROADMAP item 2's autotuner
// selects trisolve strategies from exactly these numbers, and the
// solver report prints them per phase for `--backend tasks`.
//
// The producer of ExecutedProfile is `exec::TaskBackend`: one span per
// fiber *segment* (the run between two suspensions), with sequential
// edges along each rank and wake edges from the send that re-readied a
// blocked fiber — the dynamic dependency structure discovered at runtime.
// Tests also build profiles by hand.
#pragma once

#include <cstdint>
#include <vector>

namespace sparts::obs {

/// One executed unit of work.  `id` must be unique within a profile;
/// timestamps share any common base (only differences matter).
struct ExecutedSpan {
  std::int64_t id = 0;
  double start = 0.0;
  double end = 0.0;
  std::int32_t lane = -1;  ///< worker / rank that ran it
  std::int32_t kind = 0;   ///< producer-defined tag (TaskBackend: the rank)
};

/// Dependency: `from` must finish before `to` can run.
struct ExecutedEdge {
  std::int64_t from = 0;
  std::int64_t to = 0;
};

struct ExecutedProfile {
  std::vector<ExecutedSpan> spans;
  std::vector<ExecutedEdge> edges;

  bool empty() const { return spans.empty(); }
  void clear() {
    spans.clear();
    edges.clear();
  }
};

struct CriticalPathReport {
  int procs = 0;            ///< lanes the profile ran on
  std::size_t spans = 0;    ///< executed units
  std::size_t edges = 0;    ///< dependency edges honoured
  double t1 = 0.0;          ///< total measured work (sum of durations)
  double t_inf = 0.0;       ///< longest dependent chain (critical path)
  double makespan = 0.0;    ///< max end - min start, the measured wall
  double span_bound = 0.0;  ///< greedy bound T1/p + T∞
  double avg_parallelism = 0.0;  ///< T1 / T∞
  double slack = 0.0;  ///< p * makespan - T1: idle processor-seconds
  std::vector<std::int64_t> path;  ///< span ids on the critical path

  bool valid() const { return spans > 0; }
};

/// Longest-path analysis of `profile` executed on `procs` lanes.
/// Edges naming unknown span ids are ignored; spans trapped in an edge
/// cycle (malformed input) contribute to T1 but not to the path.
CriticalPathReport critical_path(const ExecutedProfile& profile, int procs);

}  // namespace sparts::obs
