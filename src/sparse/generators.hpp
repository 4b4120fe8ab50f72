// Workload generators.
//
// The paper's analysis covers matrices whose graphs are two- or three-
// dimensional neighborhood graphs (finite-difference / finite-element
// discretizations).  These generators produce exactly that class, plus the
// paper's 19x19 illustration matrix (Fig. 1) and synthetic counterparts of
// its five Boeing-Harwell test matrices (see DESIGN.md §3 for the
// substitution rationale).
#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sparse/formats.hpp"

namespace sparts::sparse {

/// kx x ky grid, 5-point (stencil=5) or 9-point (stencil=9) coupling.
/// SPD: Laplacian-like with diagonal = degree + shift.
SymmetricCsc grid2d(index_t kx, index_t ky, int stencil = 5,
                    real_t shift = 1e-2);

/// kx x ky x kz grid, 7-point (stencil=7) or 27-point (stencil=27).
SymmetricCsc grid3d(index_t kx, index_t ky, index_t kz, int stencil = 7,
                    real_t shift = 1e-2);

/// Multi-degree-of-freedom meshes: every mesh vertex carries `dof`
/// unknowns, fully coupled within the vertex and across each mesh edge
/// (dense dof x dof blocks).  This is the structure of structural-analysis
/// matrices like the paper's BCSSTK problems (3-6 DOF per node), and it is
/// what gives them their high fill and flop counts relative to scalar
/// meshes of the same N.  Unknown (v, a) has index v*dof + a.
SymmetricCsc grid2d_dof(index_t kx, index_t ky, int stencil, index_t dof,
                        real_t shift = 1e-2);
SymmetricCsc grid3d_dof(index_t kx, index_t ky, index_t kz, int stencil,
                        index_t dof, real_t shift = 1e-2);

/// Random sparse SPD matrix: ~`avg_off_diag` random off-diagonals per
/// column, strictly diagonally dominant.  Used by property tests.  Throws
/// InvalidArgument when n * avg_off_diag / 2 exceeds the n(n-1)/2 pairs.
SymmetricCsc random_spd(index_t n, index_t avg_off_diag, Rng& rng);

/// Random symmetric *indefinite* but strictly diagonally dominant matrix:
/// like random_spd, but each diagonal entry's sign is flipped negative
/// with probability `negative_fraction`.  Cholesky rejects it; an
/// L D L^T factorization would need no pivoting.  Used to test the
/// factorizations' pivot checks.
SymmetricCsc random_symmetric_dd(index_t n, index_t avg_off_diag,
                                 double negative_fraction, Rng& rng);

/// Random symmetric positive definite matrix built from a random planar-ish
/// mesh: n points on a jittered grid with nearest-neighbor coupling.  A
/// harsher ordering workload than a perfect grid.
SymmetricCsc jittered_mesh2d(index_t kx, index_t ky, Rng& rng);

/// Block-diagonal forest: `blocks` independent tridiagonal chains of
/// `block_len` unknowns each (diagonal 4, off-diagonal -1).  The graph is
/// disconnected, and in natural order the elimination tree is `blocks`
/// paths with one root each: a maximally wide, flat etree.
SymmetricCsc wide_flat(index_t blocks, index_t block_len);

/// The 19-node symmetric matrix of the paper's Figure 1 (as a pattern with
/// SPD values).  Nodes 0..18, elimination tree as in the figure.
SymmetricCsc figure1_matrix();

/// Deterministic right-hand side block (n x m, column-major) with entries
/// in [-1, 1].
std::vector<real_t> random_rhs(index_t n, index_t m, Rng& rng);

}  // namespace sparts::sparse
