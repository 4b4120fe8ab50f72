// Quickstart: solve a sparse SPD system end to end with the sequential
// solver facade.
//
//   1. build (or load) a symmetric positive definite matrix,
//   2. factorize (ordering + symbolic + numeric),
//   3. solve for one or more right-hand sides,
//   4. check the residual.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>
#include <vector>

#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "trisolve/trisolve.hpp"

int main() {
  using namespace sparts;

  // A 2-D Poisson problem on a 50x50 grid (N = 2500).
  const sparse::SymmetricCsc a = sparse::grid2d(50, 50);
  std::cout << "matrix: N = " << a.n() << ", nnz(lower) = " << a.nnz_lower()
            << "\n";

  // Factorize with nested-dissection ordering (the default).
  const solver::SparseSolver s = solver::SparseSolver::factorize(a);
  std::cout << "factor: nnz(L) = " << s.info().factor_nnz
            << ", factorization flops = " << s.info().factor_flops
            << ", supernodes = " << s.info().num_supernodes << "\n";

  // Solve A X = B for 4 right-hand sides at once.
  const index_t m = 4;
  Rng rng(7);
  const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
  const std::vector<real_t> x = s.solve(b, m).x;

  const real_t residual = trisolve::relative_residual(a, x, b, m);
  std::cout << "relative residual over " << m << " right-hand sides: "
            << residual << "\n";
  return residual < 1e-10 ? 0 : 1;
}
