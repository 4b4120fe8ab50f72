#include "solver/condest.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace sparts::solver {

namespace {

/// Exact ||A||_1 = max column absolute sum of the symmetric matrix.
real_t one_norm(const sparse::SymmetricCsc& a) {
  const index_t n = a.n();
  std::vector<real_t> colsum(static_cast<std::size_t>(n), 0.0);
  for (index_t j = 0; j < n; ++j) {
    auto rows = a.col_rows(j);
    auto vals = a.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      const real_t v = std::abs(vals[k]);
      colsum[static_cast<std::size_t>(j)] += v;
      if (rows[k] != j) colsum[static_cast<std::size_t>(rows[k])] += v;
    }
  }
  return *std::max_element(colsum.begin(), colsum.end());
}

real_t vec_one_norm(const std::vector<real_t>& v) {
  real_t s = 0.0;
  for (real_t x : v) s += std::abs(x);
  return s;
}

}  // namespace

ConditionEstimate estimate_condition(const SparseSolver& solver,
                                     int max_iterations) {
  // Hager's estimator on B = A^{-1}: maximize ||B x||_1 over ||x||_1 = 1.
  // For symmetric A, B^T = B, so both products are factor solves.
  const index_t n = solver.permuted_matrix().n();
  SPARTS_CHECK(n > 0);
  ConditionEstimate est;
  est.norm_a = one_norm(solver.permuted_matrix());

  std::vector<real_t> x(static_cast<std::size_t>(n),
                        1.0 / static_cast<real_t>(n));
  real_t best = 0.0;
  for (int iter = 0; iter < max_iterations; ++iter) {
    // y = A^{-1} x.
    const std::vector<real_t> y = solver.solve(x, 1).x;
    ++est.solves_used;
    const real_t norm_y = vec_one_norm(y);
    best = std::max(best, norm_y);

    // xi = sign(y); z = A^{-1} xi  (A symmetric: A^{-T} = A^{-1}).
    std::vector<real_t> xi(static_cast<std::size_t>(n));
    for (index_t i = 0; i < n; ++i) {
      xi[static_cast<std::size_t>(i)] =
          y[static_cast<std::size_t>(i)] >= 0.0 ? 1.0 : -1.0;
    }
    const std::vector<real_t> z = solver.solve(xi, 1).x;
    ++est.solves_used;

    // Converged when max |z_i| <= z^T x.
    index_t jmax = 0;
    real_t zmax = 0.0;
    real_t ztx = 0.0;
    for (index_t i = 0; i < n; ++i) {
      const real_t az = std::abs(z[static_cast<std::size_t>(i)]);
      if (az > zmax) {
        zmax = az;
        jmax = i;
      }
      ztx += z[static_cast<std::size_t>(i)] * x[static_cast<std::size_t>(i)];
    }
    if (zmax <= ztx * (1.0 + 1e-12)) break;
    std::fill(x.begin(), x.end(), 0.0);
    x[static_cast<std::size_t>(jmax)] = 1.0;
  }
  est.norm_ainv = best;
  return est;
}

}  // namespace sparts::solver
