// The factorization expressed as an explicit supernode task DAG.
//
// Two granularities of the same dependence structure:
//
//   * build_supernode_dag — one task per supernode, child -> parent edges.
//     Its topo_schedule() is exactly ascending supernode order (edges only
//     go small -> large and the scheduler breaks ties by smallest id), so
//     the SPMD loop in parfact.cpp — `for (s = 0; s < nsup; ++s)` — is a
//     *second lowering* of the same graph; supernode_dag_stats reports
//     its shape without building it.
//
//   * build_factor_dag — the task-parallel lowering's shape: a
//     panel_factor task per supernode (assemble + extend-add + pivot-block
//     Cholesky + factor write-back) and, for supernodes with below rows,
//     an update task (Schur complement + update-matrix emission), with
//     edges factor(s) -> update(s) and update(c) -> factor(parent(c)).
//
// taskdag_factor executes the fine-grained graph on a work-stealing
// TaskScheduler.  Its factor is bit-identical to
// numeric::multifrontal_cholesky because both run the same
// factor_supernode_panel / supernode_schur_update steps and a front's
// content depends only on A plus the children's update matrices combined
// in children order — never on when unrelated supernodes execute.
#pragma once

#include "exec/task_scheduler.hpp"
#include "exec/taskgraph.hpp"
#include "numeric/multifrontal.hpp"
#include "sparse/formats.hpp"
#include "symbolic/supernodes.hpp"

namespace sparts::parfact {

/// Coarse elimination DAG: task id == supernode id, edges child -> parent.
exec::TaskGraph build_supernode_dag(const symbolic::SupernodePartition& part);

/// build_supernode_dag(part).analyze() by a direct O(nsup) sweep over the
/// child -> parent edges, without building the graph.
exec::GraphStats supernode_dag_stats(const symbolic::SupernodePartition& part);

/// Fine-grained factorization DAG (structure only, no bodies): task ids
/// are interleaved per supernode; node.item holds the supernode id and
/// node.kind distinguishes panel_factor from update tasks.  Costs are
/// dense flop estimates, so analyze() yields a meaningful critical path.
exec::TaskGraph build_factor_dag(const symbolic::SupernodePartition& part);

/// What taskdag_factor measured.
struct TaskFactorReport {
  exec::GraphStats graph;            ///< shape of the executed DAG
  exec::SchedulerStats scheduler;    ///< steals / parks of this run
  numeric::FactorizationStats stats; ///< flops and peak-memory counters
  double seconds = 0.0;              ///< wall time of the graph execution
};

/// Shared-memory task-DAG factorization of A over `part`: builds the
/// fine-grained DAG, attaches bodies, and drains it on a work-stealing
/// pool.  The returned factor is bit-identical to
/// numeric::multifrontal_cholesky(a, part).
numeric::SupernodalFactor taskdag_factor(
    const sparse::SymmetricCsc& a, const symbolic::SupernodePartition& part,
    const exec::TaskScheduler::Config& workers = {},
    TaskFactorReport* report = nullptr);

}  // namespace sparts::parfact
