// Shared infrastructure for the experiment harness: problem setup, machine
// construction, MFLOPS accounting, and paper-reference bookkeeping.
//
// Every experiment binary reproduces one table, figure or claim of the
// paper, or one of our ablations (the experiment ids E0..E17 in DESIGN.md
// §5).  Absolute times come from the simulated T3D cost model; the
// quantities to compare with the paper are the *shapes*: speedups,
// crossovers, and ratios.
//
// Environment knobs:
//   SPARTS_BENCH_SCALE  linear problem-size scale in (0, 1]; default 0.35
//                       so the full harness runs in minutes.  Set to 1.0
//                       to reproduce the paper's N exactly.
//   SPARTS_BENCH_MAXP   largest simulated processor count (default 64;
//                       the paper uses 256).
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/table.hpp"
#include "exec/stats.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/partrisolve.hpp"
#include "simpar/machine.hpp"
#include "solver/sparse_solver.hpp"
#include "solver/workloads.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("SPARTS_BENCH_SCALE")) {
    const double s = std::atof(env);
    if (s > 0.0 && s <= 1.0) return s;
  }
  return 0.35;
}

inline index_t bench_max_p() {
  if (const char* env = std::getenv("SPARTS_BENCH_MAXP")) {
    const long p = std::atol(env);
    if (p >= 1) return static_cast<index_t>(p);
  }
  return 64;
}

inline simpar::Machine::Config t3d_config(index_t p) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::t3d();
  cfg.topology = exec::TopologyKind::hypercube;
  return cfg;
}

/// A fully prepared problem: permuted matrix, partition, numeric factor.
struct PreparedProblem {
  std::string name;
  std::string description;
  sparse::SymmetricCsc a;  ///< permuted (solver ordering applied)
  symbolic::SupernodePartition part;
  numeric::SupernodalFactor factor;
  nnz_t factor_flops = 0;
  nnz_t factor_nnz = 0;
  index_t paper_n = 0;
  nnz_t paper_factor_nnz = 0;
  nnz_t paper_factor_opcount = 0;
};

/// Order with the problem's geometric nested dissection, run symbolic
/// analysis and the sequential numeric factorization.
inline PreparedProblem prepare(solver::TestProblem problem) {
  PreparedProblem out;
  out.name = std::move(problem.name);
  out.description = std::move(problem.description);
  out.paper_n = problem.paper_n;
  out.paper_factor_nnz = problem.paper_factor_nnz;
  out.paper_factor_opcount = problem.paper_factor_opcount;
  out.a = sparse::permute_symmetric(problem.matrix, problem.nd_ordering);
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(out.a);
  out.part = symbolic::fundamental_supernodes(sym);
  out.factor_flops = sym.factorization_flops();
  out.factor_nnz = sym.nnz();
  out.factor = numeric::multifrontal_cholesky(out.a, out.part);
  return out;
}

/// Tridiagonal SPD matrix of order n: path graph, path etree — the
/// maximally deep elimination tree (bench_e2e's chain workload).
inline sparse::SymmetricCsc chain_matrix(index_t n) {
  sparse::Triplets t(n, n);
  for (index_t i = 0; i < n; ++i) {
    t.add(i, i, 4.0);
    if (i + 1 < n) t.add(i + 1, i, -1.0);
  }
  return sparse::SymmetricCsc::from_triplets(t);
}

/// Prepare a grid problem with the exact geometric ND ordering.
inline PreparedProblem prepare_grid(index_t kx, index_t ky, index_t kz = 1,
                                    int stencil = 0) {
  PreparedProblem out;
  const bool three_d = kz > 1;
  out.name = three_d ? "grid3d" : "grid2d";
  out.description = out.name + " " + std::to_string(kx) + "x" +
                    std::to_string(ky) +
                    (three_d ? "x" + std::to_string(kz) : "");
  const sparse::SymmetricCsc a0 =
      three_d ? sparse::grid3d(kx, ky, kz, stencil == 0 ? 7 : stencil)
              : sparse::grid2d(kx, ky, stencil == 0 ? 5 : stencil);
  const sparse::Permutation perm =
      three_d ? ordering::nested_dissection_grid3d(kx, ky, kz)
              : ordering::nested_dissection_grid2d(kx, ky);
  out.a = sparse::permute_symmetric(a0, perm);
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(out.a);
  out.part = symbolic::fundamental_supernodes(sym);
  out.factor_flops = sym.factorization_flops();
  out.factor_nnz = sym.nnz();
  out.factor = numeric::multifrontal_cholesky(out.a, out.part);
  return out;
}

/// Result of one distributed solve measurement.
struct SolveMeasurement {
  double fb_time = 0.0;  ///< forward + backward simulated seconds
  double mflops = 0.0;   ///< useful solve flops / time
};

/// Run forward+backward on p simulated processors with m RHS.
inline SolveMeasurement measure_solve(const PreparedProblem& prob, index_t p,
                                      index_t m,
                                      partrisolve::Options opts = {}) {
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.part, p);
  partrisolve::DistributedTrisolver solver(prob.factor, map, opts);
  simpar::Machine machine(t3d_config(p));
  const index_t n = prob.a.n();
  Rng rng(1234);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> y(static_cast<std::size_t>(n * m), 0.0);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  const double fw_time = solver.forward(machine, b, y, m).time();
  const double bw_time = solver.backward(machine, y, x, m).time();
  SolveMeasurement out;
  out.fb_time = fw_time + bw_time;
  // Useful flops: the sparse count 4 nnz(L) m, as the paper reports.
  out.mflops =
      static_cast<double>(4 * prob.factor_nnz * m) / out.fb_time / 1e6;
  return out;
}

inline void print_header(const std::string& experiment,
                         const std::string& what) {
  std::cout << "\n=================================================="
            << "==============================\n"
            << experiment << ": " << what << "\n"
            << "scale=" << bench_scale() << "  max_p=" << bench_max_p()
            << "  (SPARTS_BENCH_SCALE / SPARTS_BENCH_MAXP to change)\n"
            << "=================================================="
            << "==============================\n";
}

}  // namespace sparts::bench
