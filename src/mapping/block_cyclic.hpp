// 2-D block-cyclic distribution map: entry (i, j) belongs to block (I, J);
// block (I, J) is owned by grid processor (I mod qr, J mod qc).  This is
// the factorization distribution that must be converted before solving
// (paper §4).  The 1-D row-wise map the solvers need (row i belongs to
// block I = i/b, owned by processor I mod q) is partrisolve::Layout.
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"

namespace sparts::mapping {

/// 2-D block-cyclic map over a qr x qc processor grid.
struct BlockCyclic2d {
  index_t b = 1;   ///< square block size
  index_t qr = 1;  ///< grid rows
  index_t qc = 1;  ///< grid columns

  index_t nprocs() const { return qr * qc; }

  /// Grid coordinates of the owner of entry (i, j).
  index_t owner_row(index_t i) const { return (i / b) % qr; }
  index_t owner_col(index_t j) const { return (j / b) % qc; }

  /// Linearized owner (row-major over the grid).
  index_t owner(index_t i, index_t j) const {
    return owner_row(i) * qc + owner_col(j);
  }

  /// Choose a near-square grid for q processors (q a power of two):
  /// qr >= qc, qr * qc = q.
  static BlockCyclic2d near_square(index_t q, index_t b);
};

/// Structural validator for a 2-D grid map: shape and grid-ownership
/// consistency over one full period of block coordinates.
void validate_block_cyclic(const BlockCyclic2d& map);

}  // namespace sparts::mapping
