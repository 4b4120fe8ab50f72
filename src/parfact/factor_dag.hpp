// The factorization expressed as an explicit supernode task DAG.
//
// One task per supernode, child -> parent edges (build_supernode_dag).
// Its topo_schedule() is exactly ascending supernode order (edges only go
// small -> large and the scheduler breaks ties by smallest id), so the
// SPMD loop in parfact.cpp — `for (s = 0; s < nsup; ++s)` — is a lowering
// of the same graph; supernode_dag_stats reports its shape without
// building it, and the tests compare it with analyze() of the graph.
#pragma once

#include "exec/taskgraph.hpp"
#include "symbolic/supernodes.hpp"

namespace sparts::parfact {

/// Coarse elimination DAG: task id == supernode id, edges child -> parent.
exec::TaskGraph build_supernode_dag(const symbolic::SupernodePartition& part);

/// build_supernode_dag(part).analyze() by a direct O(nsup) sweep over the
/// child -> parent edges, without building the graph.
exec::GraphStats supernode_dag_stats(const symbolic::SupernodePartition& part);

}  // namespace sparts::parfact
