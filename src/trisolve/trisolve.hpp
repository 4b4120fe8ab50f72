// Sequential supernodal forward elimination and backward substitution
// (paper §2, serial form) — the single-processor baseline of every
// experiment and the reference the parallel solvers are validated against.
//
// Forward elimination (L Y = B) walks the supernodal elimination tree
// bottom-up: at each trapezoidal supernode, solve the t x t dense triangle,
// then subtract the (n_s - t) x t rectangle's product from the entries of
// the right-hand side owned by ancestors.  Backward substitution (L^T X = Y)
// walks top-down with the transposed operations.
//
// The per-supernode steps are public: the distributed solver runs them
// unchanged on every supernode that one processor owns alone
// (partrisolve.hpp), which makes its p = 1 solve this solve bit for bit.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "numeric/supernodal_factor.hpp"

namespace sparts::trisolve {

/// Statistics of one solver run.
struct SolveStats {
  nnz_t flops = 0;
};

/// One supernode's operands in a solve step.  `l` is its trapezoid
/// (rows.size() x t, column-major, leading dimension `ldl`) and `rows` its
/// row indices, the first t being its own columns.  Of the below rows
/// rows[t + i], the first `split` live in the solution vector itself; the
/// rest live in `tail` (leading dimension `tail_ld`) at row
/// tail_pos[i - split].  The sequential solve keeps every row in the
/// vector; the distributed solver keeps the rows of shared supernodes in
/// the tail it hands to them.
struct SupernodeStep {
  const real_t* l = nullptr;
  index_t ldl = 0;
  index_t t = 0;
  std::span<const index_t> rows;
  index_t split = 0;
  const index_t* tail_pos = nullptr;
  real_t* tail = nullptr;
  index_t tail_ld = 0;
};

/// Supernode s of `l` with every below row in the solution vector.
SupernodeStep sequential_step(const numeric::SupernodalFactor& l, index_t s);

/// Forward step: X1 <- L11^{-1} X1 on the supernode's own rows of `x`
/// (n x m, ld ldx), then subtract L21 X1 from its below rows.  `temp` is
/// scratch.  Returns the flops.
nnz_t forward_step(const SupernodeStep& step, real_t* x, index_t ldx,
                   index_t m, std::vector<real_t>& temp);

/// Backward step: X1 <- L11^{-T} (X1 - L21^T X2), X2 gathered from the
/// below rows.  `temp` is scratch.  Returns the flops.
nnz_t backward_step(const SupernodeStep& step, real_t* x, index_t ldx,
                    index_t m, std::vector<real_t>& temp);

/// Solve L Y = B in place.  `b` is n x m column-major with ld = n.
void forward_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                   SolveStats* stats = nullptr);

/// Solve L^T X = Y in place.
void backward_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                    SolveStats* stats = nullptr);

/// Full solve of A X = B given the factor of (permuted) A: forward then
/// backward, in place.
void full_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                SolveStats* stats = nullptr);

/// Relative residual ||A x - b||_2 / ||b||_2, column-wise max, for a
/// computed solution (both column-major n x m).
real_t relative_residual(const sparse::SymmetricCsc& a,
                         std::span<const real_t> x, std::span<const real_t> b,
                         index_t m);

}  // namespace sparts::trisolve
