// Iterative refinement on the host solver.
#include <gtest/gtest.h>

#include <vector>

#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts {
namespace {

real_t residual_general(const sparse::SymmetricCsc& a,
                        std::span<const real_t> x, std::span<const real_t> b,
                        index_t m) {
  return trisolve::relative_residual(a, x, b, m);
}

TEST(Refinement, ImprovesOrHoldsResidual) {
  const sparse::SymmetricCsc a = sparse::grid2d(25, 25);
  solver::Options opt;
  opt.refine_tolerance = 1e-16;
  const solver::SparseSolver s = solver::SparseSolver::factorize(a, opt);
  const index_t n = a.n(), m = 2;
  Rng rng(34);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);

  std::vector<real_t> x_plain = s.solve(b, m).x;
  const real_t r_plain = residual_general(a, x_plain, b, m);

  const std::vector<real_t> x_ref = s.solve(b, m, 3).x;
  const real_t r_refined = residual_general(a, x_ref, b, m);
  EXPECT_LE(r_refined, r_plain * (1.0 + 1e-12));
  EXPECT_LT(r_refined, 1e-13);
}

TEST(Refinement, ReportsResidual) {
  const sparse::SymmetricCsc a = sparse::grid3d(5, 5, 5);
  solver::Options opt;
  opt.refine_tolerance = 1e-14;
  const solver::SparseSolver s = solver::SparseSolver::factorize(a, opt);
  Rng rng(35);
  std::vector<real_t> b = sparse::random_rhs(a.n(), 1, rng);
  const real_t resid = s.solve(b, 1, 2).residual;
  EXPECT_GE(resid, 0.0);
  EXPECT_LT(resid, 1e-12);
}

}  // namespace
}  // namespace sparts
