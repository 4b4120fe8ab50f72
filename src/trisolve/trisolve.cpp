#include "trisolve/trisolve.hpp"

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "dense/kernels.hpp"

namespace sparts::trisolve {

SupernodeStep sequential_step(const numeric::SupernodalFactor& l, index_t s) {
  const auto& p = l.partition();
  SupernodeStep step;
  step.l = l.block(s).data();
  step.ldl = p.height(s);
  step.t = p.width(s);
  step.rows = p.row_indices(s);
  step.split = p.height(s) - step.t;
  return step;
}

nnz_t forward_step(const SupernodeStep& step, real_t* x, index_t ldx,
                   index_t m, std::vector<real_t>& temp) {
  const index_t t = step.t;
  const index_t below = static_cast<index_t>(step.rows.size()) - t;
  real_t* x1 = x + step.rows[0];

  // Dense triangular solve on the supernode's own rows.
  nnz_t flops = dense::panel_trsm_lower(t, m, step.l, step.ldl, x1, ldx);
  if (below == 0) return flops;

  // Rectangle update: temp = L21 * X1, subtracted from the below rows.
  temp.assign(static_cast<std::size_t>(below) * m, 0.0);
  dense::panel_gemm(below, m, t, 1.0, step.l + t, step.ldl, x1, ldx,
                    temp.data(), below);
  flops += dense::gemm_flops(below, m, t);
  const index_t* rows = step.rows.data() + t;
  for (index_t c = 0; c < m; ++c) {
    real_t* xc = x + c * ldx;
    const real_t* tc = temp.data() + static_cast<std::size_t>(c) * below;
    for (index_t i = 0; i < step.split; ++i) xc[rows[i]] -= tc[i];
    if (step.split == below) continue;
    real_t* yc = step.tail + c * step.tail_ld;
    for (index_t i = step.split; i < below; ++i) {
      yc[step.tail_pos[i - step.split]] -= tc[i];
    }
  }
  return flops;
}

nnz_t backward_step(const SupernodeStep& step, real_t* x, index_t ldx,
                    index_t m, std::vector<real_t>& temp) {
  const index_t t = step.t;
  const index_t below = static_cast<index_t>(step.rows.size()) - t;
  real_t* x1 = x + step.rows[0];
  nnz_t flops = 0;

  if (below > 0) {
    // Gather ancestor rows of X, then X1 -= L21^T * X2.
    temp.resize(static_cast<std::size_t>(below) * m);
    const index_t* rows = step.rows.data() + t;
    for (index_t c = 0; c < m; ++c) {
      const real_t* xc = x + c * ldx;
      real_t* tc = temp.data() + static_cast<std::size_t>(c) * below;
      for (index_t i = 0; i < step.split; ++i) tc[i] = xc[rows[i]];
      if (step.split == below) continue;
      const real_t* yc = step.tail + c * step.tail_ld;
      for (index_t i = step.split; i < below; ++i) {
        tc[i] = yc[step.tail_pos[i - step.split]];
      }
    }
    dense::panel_gemm_at(t, m, below, -1.0, step.l + t, step.ldl,
                         temp.data(), below, x1, ldx);
    flops += dense::gemm_flops(t, m, below);
  }

  // Dense transposed-triangular solve on the supernode's own rows.
  flops += dense::panel_trsm_lower_transposed(t, m, step.l, step.ldl, x1,
                                              ldx);
  return flops;
}

void forward_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                   SolveStats* stats) {
  const auto& p = l.partition();
  nnz_t flops = 0;
  std::vector<real_t> temp;

  // Supernodes are numbered so that ancestors have higher indices
  // (column-contiguity), so ascending order is a valid bottom-up sweep.
  for (index_t s = 0; s < p.num_supernodes(); ++s) {
    flops += forward_step(sequential_step(l, s), b, p.n(), m, temp);
  }
  if (stats != nullptr) stats->flops += flops;
}

void backward_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                    SolveStats* stats) {
  const auto& p = l.partition();
  nnz_t flops = 0;
  std::vector<real_t> temp;

  for (index_t s = p.num_supernodes() - 1; s >= 0; --s) {
    flops += backward_step(sequential_step(l, s), b, p.n(), m, temp);
  }
  if (stats != nullptr) stats->flops += flops;
}

void full_solve(const numeric::SupernodalFactor& l, real_t* b, index_t m,
                SolveStats* stats) {
  forward_solve(l, b, m, stats);
  backward_solve(l, b, m, stats);
}

real_t relative_residual(const sparse::SymmetricCsc& a,
                         std::span<const real_t> x, std::span<const real_t> b,
                         index_t m) {
  const index_t n = a.n();
  SPARTS_CHECK(static_cast<index_t>(x.size()) == n * m);
  SPARTS_CHECK(static_cast<index_t>(b.size()) == n * m);
  real_t worst = 0.0;
  std::vector<real_t> r(static_cast<std::size_t>(n));
  for (index_t c = 0; c < m; ++c) {
    for (index_t i = 0; i < n; ++i) {
      r[static_cast<std::size_t>(i)] = -b[static_cast<std::size_t>(c * n + i)];
    }
    a.symv(1.0, x.subspan(static_cast<std::size_t>(c * n),
                          static_cast<std::size_t>(n)),
           r);
    real_t rn = 0.0, bn = 0.0;
    for (index_t i = 0; i < n; ++i) {
      rn += r[static_cast<std::size_t>(i)] * r[static_cast<std::size_t>(i)];
      const real_t bi = b[static_cast<std::size_t>(c * n + i)];
      bn += bi * bi;
    }
    worst = std::max(worst, std::sqrt(rn) / std::max(std::sqrt(bn), 1e-300));
  }
  return worst;
}

}  // namespace sparts::trisolve
