// Distributed supernodal multifrontal Cholesky factorization with
// two-dimensional block-cyclic partitioning of the frontal matrices and
// subtree-to-subcube mapping (the factorization algorithm of Gupta,
// Karypis & Kumar [4] that this paper's triangular solvers complement).
//
// Why it is here: the paper's evaluation (Fig. 7) reports factorization
// time next to solve time to support two claims — that the parallelized
// solvers take only a small fraction of factorization time, and that the
// factor emerges from factorization in a 2-D distribution that must be
// converted (redist/) before solving.  This module reproduces both.
//
// Shape of the computation:
//   * Sequential subtrees (q = 1) run the classic multifrontal recursion
//     locally on their processor.
//   * A front shared by q processors lives on a near-square qr x qc
//     process grid, block-cyclic with block size b2d.  Each pivot panel is
//     factored with the fan-out algorithm: diagonal-block Cholesky,
//     broadcast down the grid column, row-panel triangular solves,
//     broadcast of row pieces along grid rows, all-gather of the
//     transposed pieces along grid columns, then local rank-b2d updates.
//     A front no taller than b2d is one block on grid rank (0, 0), which
//     factors its one panel alone, with no broadcast or all-gather.
//   * extend-add routes each child Schur-complement entry from its owner
//     in the child's grid to its owner in the parent's grid point-to-point
//     (positions are implied by a canonical enumeration both sides
//     compute, so only values travel).
#pragma once

#include "common/types.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/supernodal_factor.hpp"
#include "exec/process.hpp"
#include "sparse/formats.hpp"
#include "symbolic/supernodes.hpp"

namespace sparts::parfact {

struct Options {
  index_t block_2d = 16;  ///< block size of the 2-D front distribution
};

struct Report {
  exec::RunStats stats;
  double time() const { return stats.parallel_time(); }
};

/// Factor A over `part` on the simulated machine; writes the numeric
/// factor into `out` (which is allocated by this call).  The result equals
/// the sequential multifrontal factor up to floating-point reordering.
Report parallel_multifrontal(exec::Comm& machine,
                             const sparse::SymmetricCsc& a,
                             const symbolic::SupernodePartition& part,
                             const mapping::SubcubeMapping& map,
                             numeric::SupernodalFactor& out,
                             const Options& options = {});

}  // namespace sparts::parfact
