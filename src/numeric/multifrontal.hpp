// Sequential supernodal multifrontal Cholesky factorization (Liu, "The
// multifrontal method for sparse matrix solution").
//
// The factorization walks the supernodal elimination tree in postorder.
// Each supernode assembles a dense frontal matrix from the original matrix
// entries of its pivot columns plus the update matrices of its children
// (extend-add), performs a dense partial Cholesky of the pivot block, and
// passes the Schur complement up as its own update matrix.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "numeric/supernodal_factor.hpp"
#include "sparse/formats.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"

namespace sparts::numeric {

/// Statistics of a factorization run.
struct FactorizationStats {
  nnz_t flops = 0;              ///< floating point operations performed
  nnz_t peak_front_entries = 0; ///< largest single frontal matrix
  nnz_t peak_stack_entries = 0; ///< high-water mark of the update stack
};

/// A supernode's update (Schur complement) matrix: dense symmetric lower
/// block over its below-pivot row indices.  Produced by
/// supernode_schur_update, consumed (extend-add) by the parent's
/// factor_supernode_panel.
struct UpdateMatrix {
  std::vector<index_t> rows;   ///< global row ids (ascending)
  std::vector<real_t> values;  ///< column-major size rows^2 (lower used)

  index_t size() const { return static_cast<index_t>(rows.size()); }
};

/// The "panel factor" half of one supernode's elimination: assemble the
/// ns x ns front (original entries of the pivot columns, then extend-add
/// of `updates[c]` for each child in the order given — every child slot is
/// consumed and freed), run the dense partial Cholesky of the pivot block,
/// and write the factored pivot columns into `factor.block(s)`.  `front`
/// is (re)allocated to hold the frontal matrix; `pos_of_row` is scratch of
/// size >= n with every entry -1 on entry and on return.  Returns the
/// Cholesky flop count.  multifrontal_cholesky runs this step and then
/// supernode_schur_update for each supernode in postorder; a front's
/// content depends only on A and on the children's update matrices
/// combined in children order.
nnz_t factor_supernode_panel(const sparse::SymmetricCsc& a,
                             const symbolic::SupernodePartition& p, index_t s,
                             std::span<const index_t> children,
                             std::vector<UpdateMatrix>& updates,
                             SupernodalFactor& factor,
                             std::vector<real_t>& front,
                             std::vector<index_t>& pos_of_row);

/// The "update" half: Schur complement of the trailing block
/// (F22 -= L21 L21^T) and emission of the update matrix for the parent.
/// `out` stays empty when the supernode has no below rows.  Returns the
/// syrk flop count.
nnz_t supernode_schur_update(const symbolic::SupernodePartition& p, index_t s,
                             std::vector<real_t>& front, UpdateMatrix* out);

/// Factor A (SPD, lower storage) over the given supernode partition.
/// The partition must describe the symbolic factor of A (possibly
/// amalgamated).  Throws NumericalError for non-SPD input.
SupernodalFactor multifrontal_cholesky(const sparse::SymmetricCsc& a,
                                       const symbolic::SupernodePartition& p,
                                       FactorizationStats* stats = nullptr);

/// Convenience: symbolic analysis + fundamental supernodes + factorization.
SupernodalFactor multifrontal_cholesky(const sparse::SymmetricCsc& a,
                                       FactorizationStats* stats = nullptr);

}  // namespace sparts::numeric
