// Scalability study: speedup and efficiency of the distributed triangular
// solvers as the simulated machine grows, exactly the experiment a user
// would run before sizing a production deployment.
//
// Build & run:  ./build/examples/scalability_study
#include <iostream>
#include <vector>

#include "common/table.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/partrisolve.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "trisolve/trisolve.hpp"
#include "simpar/machine.hpp"

int main() {
  using namespace sparts;

  const index_t kx = 80, ky = 80;
  const sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(kx, ky), ordering::nested_dissection_grid2d(kx, ky));
  const numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  std::cout << "grid2d " << kx << "x" << ky << " (N = " << a.n()
            << "), nnz(L) = " << l.factor_nnz() << "\n\n";

  const index_t m = 1;
  Rng rng(5);
  const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);

  TextTable table({"p", "FBsolve time (s)", "speedup", "efficiency",
                   "MFLOPS", "messages"});
  double t1 = 0.0;
  for (index_t p = 1; p <= 64; p *= 2) {
    const mapping::SubcubeMapping map =
        mapping::subtree_to_subcube(l.partition(), p);
    partrisolve::DistributedTrisolver solver(l, map, {});
    simpar::Machine::Config cfg;
    cfg.nprocs = p;
    cfg.cost = exec::CostModel::t3d();
    simpar::Machine machine(cfg);
    std::vector<real_t> x(b.size(), 0.0);
    auto [fw, bw] = solver.solve(machine, b, x, m);
    const double t = fw.time() + bw.time();
    if (p == 1) t1 = t;
    table.new_row();
    table.add(static_cast<long long>(p));
    table.add(t, 4);
    table.add(t1 / t, 2);
    table.add(t1 / (static_cast<double>(p) * t), 3);
    table.add(static_cast<double>(4 * l.factor_nnz() * m) / t / 1e6, 1);
    table.add(static_cast<long long>(fw.stats.total_messages() +
                                     bw.stats.total_messages()));
  }
  std::cout << table;
  std::cout << "\nSpeedup grows but efficiency decays — the O(p^2) "
               "isoefficiency of triangular solves.\nGrow the problem like "
               "W ~ p^2 to hold efficiency (see bench_isoefficiency).\n";
  return 0;
}
