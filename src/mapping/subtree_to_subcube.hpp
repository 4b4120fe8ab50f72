// Subtree-to-subcube mapping of the supernodal elimination tree onto p
// processors (George, Liu & Ng; paper §2.1 and Fig. 1).
//
// The root supernode is shared by all p processors.  Descending the tree,
// at each branching the children subtrees are partitioned into two sets of
// approximately equal work and each set is assigned half the processors
// (one subcube).  Once a subtree reaches a single processor, the entire
// subtree is local to it.  Supernode chains (single children) keep the full
// subcube of their parent — with a nested-dissection ordering the tree is
// essentially binary and this reproduces the paper's "level l gets p/2^l
// processors" structure.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "exec/collectives.hpp"
#include "symbolic/supernodes.hpp"

namespace sparts::mapping {

/// Processor-group assignment for every supernode.
struct SubcubeMapping {
  index_t p = 1;                      ///< total processors
  std::vector<exec::Group> group;   ///< per supernode

  /// True if supernode s is processed in parallel (group size > 1).
  bool is_parallel(index_t s) const {
    return group[static_cast<std::size_t>(s)].count > 1;
  }

  /// Parallel "level" of s in the paper's sense: log2(p / q(s)).
  index_t level(index_t s) const;

  /// Validates: child groups are sub-groups of parents; every leaf path
  /// reaches a group; group sizes are powers of two.
  void check_consistent(const symbolic::SupernodePartition& part) const;
};

/// Compute the mapping.  `work[s]` is the weight of supernode s (e.g. its
/// solve or factorization flops); subtree work steers the binpacking at
/// branchings.  p must be a power of two.
SubcubeMapping subtree_to_subcube(const symbolic::SupernodePartition& part,
                                  index_t p, std::span<const double> work);

/// Convenience: weight supernodes by their triangular-solve flops (m = 1).
SubcubeMapping subtree_to_subcube(const symbolic::SupernodePartition& part,
                                  index_t p);

/// Per-supernode solve work weights (forward+backward, m right-hand sides).
std::vector<double> solve_work_weights(
    const symbolic::SupernodePartition& part, index_t m = 1);

/// Per-supernode factorization work weights (dense partial factorization
/// of the front).
std::vector<double> factor_work_weights(
    const symbolic::SupernodePartition& part);

/// Subtree-to-subcube over a plain elimination tree (per *column* rather
/// than per supernode) — used by phases that run before supernodes exist,
/// like the parallel symbolic factorization.  `work[v]` weights vertex v;
/// p must be a power of two.
std::vector<exec::Group> subtree_to_subcube_tree(
    const ordering::EliminationTree& tree, index_t p,
    std::span<const double> work);

}  // namespace sparts::mapping
