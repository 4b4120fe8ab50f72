// E14 — ablation: 1-D vs 2-D partitioned triangular solve.
//
// Figure 5 marks triangular solution under a 2-D partitioning
// "unscalable": every block column needs a reduction along its grid row
// and a broadcast along its grid column, which cannot pipeline the way
// the 1-D algorithm does.  We implement exactly that 2-D fan-in/fan-out
// dense solver on the simulator and compare it with the 1-D pipelined
// solver from the library.
#include <cmath>
#include <iostream>
#include <vector>

#include "exec/stats.hpp"
#include "bench_common.hpp"
#include "dense/cholesky.hpp"
#include "dense/kernels.hpp"
#include "mapping/block_cyclic.hpp"
#include "partrisolve/dense_trisolve.hpp"
#include "partrisolve/twodim.hpp"
#include "exec/collectives.hpp"
#include "simpar/machine.hpp"

namespace sparts::bench {
namespace {

/// 2-D block-cyclic dense forward solve (fan-in along rows, fan-out along
/// columns).  Returns the simulated parallel time; verifies the result.
double dense_forward_2d(index_t n, index_t p, index_t b,
                        const dense::Matrix& l, std::vector<real_t>& x_out) {
  const mapping::BlockCyclic2d grid = mapping::BlockCyclic2d::near_square(p, b);
  const index_t nb = (n + b - 1) / b;
  std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);

  simpar::Machine machine(t3d_config(p));
  auto spmd = [&](exec::Process& proc) {
    const index_t w = proc.rank();
    const index_t gr = w / grid.qc;
    const index_t gc = w % grid.qc;
    const exec::Group row_group{gr * grid.qc, grid.qc, 1};
    const exec::Group col_group{gc, grid.qr, grid.qc};
    const exec::CostModel& cost = proc.cost();

    // Everyone keeps the solved prefix of x it has seen broadcast.
    std::vector<real_t> xk;  // current block's solution
    std::vector<std::vector<real_t>> solved(static_cast<std::size_t>(nb));

    for (index_t kb = 0; kb < nb; ++kb) {
      const index_t k0 = kb * b;
      const index_t bk = std::min(b, n - k0);
      const index_t owner_r = kb % grid.qr;
      const index_t owner_c = kb % grid.qc;

      // Fan-in: ranks in grid row owner_r accumulate their partial sums
      // sum_{J < kb, J owned by my grid col} A(kb, J) x_J and reduce along
      // the grid row to the diagonal owner.
      if (gr == owner_r) {
        std::vector<real_t> partial(static_cast<std::size_t>(bk), 0.0);
        for (index_t jb = gc; jb < kb; jb += grid.qc) {
          const index_t j0 = jb * b;
          const index_t bj = std::min(b, n - j0);
          for (index_t jj = 0; jj < bj; ++jj) {
            const real_t xj = solved[static_cast<std::size_t>(jb)]
                                    [static_cast<std::size_t>(jj)];
            for (index_t ii = 0; ii < bk; ++ii) {
              partial[static_cast<std::size_t>(ii)] +=
                  l(k0 + ii, j0 + jj) * xj;
            }
          }
          proc.compute(2.0 * static_cast<double>(bk) * bj,
                       exec::FlopKind::blas2);
        }
        exec::reduce_sum(proc, row_group, partial,
                           static_cast<int>(4 * kb));
        // Root of the row reduction is grid column 0; ship to the diagonal
        // owner if different.
        if (gc == 0 && owner_c != 0) {
          proc.send_values<real_t>(gr * grid.qc + owner_c,
                                   static_cast<int>(4 * kb + 1),
                                   std::span<const real_t>(partial));
        }
        if (gc == owner_c) {
          std::vector<real_t> sums = owner_c == 0
                                         ? partial
                                         : proc.recv_values<real_t>(
                                               gr * grid.qc,
                                               static_cast<int>(4 * kb + 1));
          // Solve the diagonal block.
          xk.assign(static_cast<std::size_t>(bk), 0.0);
          for (index_t ii = 0; ii < bk; ++ii) {
            real_t s = 1.0 - sums[static_cast<std::size_t>(ii)];  // rhs = 1
            for (index_t jj = 0; jj < ii; ++jj) {
              s -= l(k0 + ii, k0 + jj) * xk[static_cast<std::size_t>(jj)];
            }
            xk[static_cast<std::size_t>(ii)] = s / l(k0 + ii, k0 + ii);
          }
          proc.compute(static_cast<double>(bk) * bk,
                       exec::FlopKind::blas2);
          for (index_t ii = 0; ii < bk; ++ii) {
            x[static_cast<std::size_t>(k0 + ii)] =
                xk[static_cast<std::size_t>(ii)];
          }
        }
      }
      // Fan-out: the diagonal owner broadcasts x_kb along its grid column;
      // every rank of that grid column then broadcasts along its grid row
      // so all future row-owners have it.
      std::vector<real_t> xblock;
      if (gr == owner_r && gc == owner_c) xblock = xk;
      if (gc == owner_c) {
        exec::broadcast_from(proc, col_group, owner_r, xblock,
                               static_cast<int>(4 * kb + 2));
      }
      exec::broadcast_from(proc, row_group, owner_c, xblock,
                             static_cast<int>(4 * kb + 3));
      solved[static_cast<std::size_t>(kb)] = std::move(xblock);
    }
    (void)cost;
  };
  auto stats = machine.run(spmd);
  x_out = x;
  return stats.parallel_time();
}

void run() {
  print_header("E14 (ablation)",
               "1-D pipelined vs 2-D fan-in/fan-out triangular solve");
  const index_t n = 768;
  dense::Matrix l(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      l(i, j) = i == j ? 4.0 : 1.0 / static_cast<real_t>(n);
    }
  }
  std::cout << "dense lower-triangular system, n = " << n
            << ", rhs = ones, b = 8\n\n";

  // Reference solution.
  dense::Matrix rhs(n, 1);
  for (index_t i = 0; i < n; ++i) rhs(i, 0) = 1.0;
  dense::Matrix ref = dense::solve_lower(l, rhs);

  TextTable table({"p", "1-D pipelined (s)", "2-D fan-in/out (s)",
                   "2-D / 1-D", "1-D efficiency", "2-D efficiency"});
  double t1_1d = 0.0, t1_2d = 0.0;
  for (index_t p = 1; p <= std::min<index_t>(bench_max_p(), 64); p *= 4) {
    std::vector<real_t> b1(static_cast<std::size_t>(n), 1.0);
    simpar::Machine machine(t3d_config(p));
    const double t1d =
        partrisolve::dense_parallel_forward(machine, l, b1, 1, 8)
            .parallel_time();
    std::vector<real_t> b2;
    const double t2d = dense_forward_2d(n, p, 8, l, b2);
    // Verify both agree with the reference.
    for (index_t i = 0; i < n; ++i) {
      SPARTS_CHECK(std::abs(b1[static_cast<std::size_t>(i)] - ref(i, 0)) <
                   1e-9);
      SPARTS_CHECK(std::abs(b2[static_cast<std::size_t>(i)] - ref(i, 0)) <
                   1e-9);
    }
    if (p == 1) {
      t1_1d = t1d;
      t1_2d = t2d;
    }
    table.new_row();
    table.add(static_cast<long long>(p));
    table.add(t1d, 5);
    table.add(t2d, 5);
    table.add(t2d / t1d, 2);
    table.add(exec::efficiency(t1_1d, p, t1d), 3);
    table.add(exec::efficiency(t1_2d, p, t2d), 3);
  }
  std::cout << table;

  // The sparse version of the same comparison, on a 3-D paper workload
  // whose large separators are where the asymptotic verdict bites.
  std::cout << "\nSparse solvers on " << "CUBE35 (scaled):\n";
  PreparedProblem prob = prepare(solver::paper_problem("CUBE35", bench_scale()));
  Rng rng2(3);
  const index_t ns = prob.a.n();
  std::vector<real_t> rhs2 = sparse::random_rhs(ns, 1, rng2);
  TextTable t2({"p", "1-D pipelined (s)", "2-D in place (s)", "2-D / 1-D"});
  for (index_t p = 4; p <= std::min<index_t>(bench_max_p(), 64); p *= 4) {
    const mapping::SubcubeMapping map =
        mapping::subtree_to_subcube(prob.part, p);
    double t1 = 0.0, t2d = 0.0;
    {
      partrisolve::DistributedTrisolver solver(prob.factor, map, {});
      simpar::Machine machine(t3d_config(p));
      std::vector<real_t> x(static_cast<std::size_t>(ns), 0.0);
      auto [fw, bw] = solver.solve(machine, rhs2, x, 1);
      t1 = fw.time() + bw.time();
    }
    {
      simpar::Machine machine(t3d_config(p));
      std::vector<real_t> x(static_cast<std::size_t>(ns), 0.0);
      auto [fw, bw] =
          partrisolve::solve_two_dim(machine, prob.factor, map, rhs2, x, 1);
      t2d = fw.time() + bw.time();
    }
    t2.new_row();
    t2.add(static_cast<long long>(p));
    t2.add(t1, 4);
    t2.add(t2d, 4);
    t2.add(t2d / t1, 2);
  }
  std::cout << t2;
  std::cout << "\nPaper reference shape (Figure 5): the 2-D formulation's "
               "per-column collectives\nprevent pipelining — its efficiency "
               "collapses with p while the 1-D pipelined solver\ndegrades "
               "gracefully.  This is why the factor must be redistributed "
               "before solving.\n";
}

}  // namespace
}  // namespace sparts::bench

int main() {
  sparts::bench::run();
  return 0;
}
