// The triangular solves expressed as explicit supernode task DAGs.
//
// Forward elimination: supernode c's rectangle update subtracts into
// right-hand-side rows owned by ancestor supernodes, so the DAG has an
// edge c -> s for every ancestor s that owns one of c's below rows.
// Backward substitution reads those same rows after their owners finalized
// them, so its DAG is the forward DAG with every edge reversed.
//
// DistributedTrisolver's SPMD sweeps are lowerings of these graphs; they
// report the graphs' shapes through solve_dag_stats, which the tests
// compare with analyze() of the built graphs.
#pragma once

#include "exec/taskgraph.hpp"
#include "symbolic/supernodes.hpp"

namespace sparts::partrisolve {

/// Forward-elimination DAG: task id == supernode id (kind fwd_solve),
/// edge c -> s when c's rectangle update touches rows of s.
exec::TaskGraph build_forward_dag(const symbolic::SupernodePartition& part);

/// Backward-substitution DAG: the forward DAG reversed (kind bwd_solve).
exec::TaskGraph build_backward_dag(const symbolic::SupernodePartition& part);

struct SolveDagStats {
  exec::GraphStats forward;   ///< == build_forward_dag(part).analyze()
  exec::GraphStats backward;  ///< == build_backward_dag(part).analyze()
};

/// Stats of both solve DAGs by one direct sweep over each supernode's
/// below rows, without building either graph: O(nsup + below rows), no
/// labels, no bodies.  DistributedTrisolver computes this once per solver.
SolveDagStats solve_dag_stats(const symbolic::SupernodePartition& part);

}  // namespace sparts::partrisolve
