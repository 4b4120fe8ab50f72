// Explicit task DAGs: the data structure the parallel algorithms lower to.
//
// A TaskGraph is a static DAG of named tasks with dependency edges
// (from -> to means `from` must finish before `to` may start).  Two
// consumers exist:
//
//   * TaskScheduler::run_graph executes the bodies on the work-stealing
//     pool, releasing each task when its last predecessor completes
//     (the shared-memory lowering of factorization / trisolve);
//   * the SPMD lowerings in parfact/partrisolve walk the same graphs'
//     topological order (ascending supernode id, see docs/taskdag.md)
//     directly and execute the subset of tasks their rank owns; they
//     report the graphs' stats through GraphStatsBuilder without
//     materializing them.
//
// Bodies are optional: a structure-only graph (no bodies) still supports
// topo_schedule() and analyze().
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sparts::exec {

using TaskId = index_t;

/// The kind of work a task performs; used for labels, tracing, and the
/// per-kind counts in GraphStats.  The values mirror the paper's block
/// operations: panel factorization / Schur update for the factorization
/// DAG, forward / backward substitution blocks for the solve DAGs.
enum class TaskKind : std::uint8_t {
  generic,
  panel_factor,  ///< factor a supernode's pivot block (chol + trsm)
  update,        ///< Schur-complement / extend-add contribution
  fwd_solve,     ///< forward-substitution block
  bwd_solve,     ///< backward-substitution block
};

const char* to_string(TaskKind kind);

struct TaskNode {
  std::string label;            ///< human-readable (traces, dumps)
  TaskKind kind = TaskKind::generic;
  std::function<void()> body;   ///< may be empty (structure-only graphs)
  double cost = 1.0;            ///< relative weight for critical-path stats
  index_t item = -1;            ///< algorithm payload id (supernode, ...)
  int affinity = -1;            ///< preferred worker, -1 = don't care
};

/// Summary statistics of a graph, computed by analyze().
struct GraphStats {
  std::int64_t tasks = 0;
  std::int64_t edges = 0;
  double total_cost = 0.0;
  double critical_path_cost = 0.0;  ///< heaviest root-to-leaf cost chain
  std::int64_t depth = 0;           ///< longest chain, counted in tasks
  std::int64_t max_width = 0;       ///< most tasks at one depth level
  /// total_cost / critical_path_cost: the speedup an infinite machine
  /// could reach on this graph — the number the bench tables compare
  /// the schedulers against.
  double avg_parallelism = 0.0;
  std::int64_t count_of(TaskKind kind) const {
    return kind_counts[static_cast<std::size_t>(kind)];
  }
  std::int64_t kind_counts[5] = {0, 0, 0, 0, 0};
};

/// Builds GraphStats one task at a time, in any topological order.  This
/// is analyze()'s aggregation step, exposed so a lowering whose graph
/// shape is implicit (the supernode DAGs: edges derived from the
/// partition) can compute the same stats by a direct sweep without
/// materializing a TaskGraph.
class GraphStatsBuilder {
 public:
  /// One task: `level` is its longest chain from a source counted in
  /// edges (0 for sources), `path_cost` its heaviest chain cost including
  /// its own `cost`.  Every predecessor must have been added first.
  void add_task(TaskKind kind, double cost, std::int64_t level,
                double path_cost);
  void add_edges(std::int64_t count) { st_.edges += count; }
  GraphStats finish() const;

 private:
  GraphStats st_;
  std::vector<std::int64_t> width_;  ///< tasks per level
};

class TaskGraph {
 public:
  /// Add a task; returns its id.  Ids are dense and ordered by insertion.
  TaskId add_task(TaskNode node);

  /// Convenience: label + body only.
  TaskId add_task(std::string label, std::function<void()> body = {},
                  TaskKind kind = TaskKind::generic, double cost = 1.0);

  /// `from` must complete before `to` starts.  Self-edges are rejected;
  /// duplicate edges are allowed and collapse to one.
  void add_edge(TaskId from, TaskId to);

  index_t num_tasks() const { return static_cast<index_t>(nodes_.size()); }
  std::int64_t num_edges() const { return num_edges_; }
  const TaskNode& node(TaskId id) const {
    return nodes_[static_cast<std::size_t>(id)];
  }
  TaskNode& node(TaskId id) { return nodes_[static_cast<std::size_t>(id)]; }
  std::span<const TaskId> successors(TaskId id) const {
    return succ_[static_cast<std::size_t>(id)];
  }
  index_t num_predecessors(TaskId id) const {
    return indegree_[static_cast<std::size_t>(id)];
  }

  /// Deterministic topological order (Kahn's algorithm, smallest-id-first
  /// among ready tasks).  Throws InvalidArgument on a cycle.  For the
  /// supernode DAGs — where tasks are added bottom-up — this returns
  /// insertion order, which is what the SPMD lowerings walk.
  std::vector<TaskId> topo_schedule() const;

  /// Structural statistics (critical path, width, parallelism).
  GraphStats analyze() const;

 private:
  std::vector<TaskNode> nodes_;
  std::vector<std::vector<TaskId>> succ_;
  std::vector<index_t> indegree_;
  std::int64_t num_edges_ = 0;
};

}  // namespace sparts::exec
