// A 3-D structural-analysis scenario: one stiffness matrix, many load
// cases — the setting where the paper's parallel triangular solves pay
// off.  Factors once on the simulated machine (2-D-partitioned
// factorization, then redistribution), solves every load-case block
// against that one factor with the pipelined solvers, and shows the
// amortization across right-hand sides.  Exits non-zero when a residual
// exceeds 1e-8.
//
// Build & run:  ./build/examples/structural3d_multirhs
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "trisolve/trisolve.hpp"

int main() {
  using namespace sparts;

  // A 14^3 hexahedral mesh (N = 2744) standing in for a component model.
  const index_t k = 14;
  const sparse::SymmetricCsc a = sparse::grid3d(k, k, k);
  const index_t p = 16;
  std::cout << "3-D mesh " << k << "^3 (N = " << a.n() << "), " << p
            << " simulated processors\n\n";

  const solver::SparseSolver s = solver::SparseSolver::factorize(a, {}, p);
  TextTable table({"load cases (NRHS)", "factor (s)", "redistribute (s)",
                   "fw+bw solve (s)", "total (s)", "solve share",
                   "residual"});
  bool accurate = true;
  for (index_t m : {1, 8, 32}) {
    Rng rng(11);
    const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
    const solver::ParallelSolveResult r = s.solve(b, m);
    const double total = r.factor_time + r.redist_time + r.solve_time();
    const real_t residual = trisolve::relative_residual(a, r.x, b, m);
    accurate = accurate && residual <= 1e-8;
    table.new_row();
    table.add(static_cast<long long>(m));
    table.add(r.factor_time, 4);
    table.add(r.redist_time, 4);
    table.add(r.solve_time(), 4);
    table.add(total, 4);
    table.add(format_fixed(100.0 * r.solve_time() / total, 1) + "%");
    table.add(format_sci(residual, 2));
  }
  std::cout << table;
  std::cout << "\nFactorization and redistribution are one-time costs, paid "
               "once above; the\ntriangular solves are what repeats per load "
               "case — which is why the paper\nparallelizes them even though "
               "they are less scalable than factorization.\n";
  return accurate ? 0 : 1;
}
