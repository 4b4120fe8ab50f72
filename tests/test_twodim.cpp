// The 2-D-partitioned triangular solver: correct results (vs sequential)
// and the expected cost inferiority versus the 1-D pipelined solver.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/partrisolve.hpp"
#include "partrisolve/twodim.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "trisolve/trisolve.hpp"
#include "simpar/machine.hpp"

namespace sparts {
namespace {

simpar::Machine make_machine(index_t p) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::t3d();
  cfg.topology = exec::TopologyKind::hypercube;
  return simpar::Machine(cfg);
}

// (p, block_2d, nrhs, three_d)
using Combo = std::tuple<index_t, index_t, index_t, bool>;

class TwoDimSolveTest : public ::testing::TestWithParam<Combo> {};

TEST_P(TwoDimSolveTest, MatchesSequentialSolve) {
  const auto [p, b2, m, three_d] = GetParam();
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      three_d ? sparse::grid3d(6, 6, 6) : sparse::grid2d(13, 13),
      three_d ? ordering::nested_dissection_grid3d(6, 6, 6)
              : ordering::nested_dissection_grid2d(13, 13));
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  const index_t n = a.n();

  Rng rng(61);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(l, ref.data(), m);

  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), p);
  partrisolve::TwoDimOptions opt;
  opt.block_2d = b2;
  simpar::Machine machine = make_machine(p);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  auto [fw, bw] =
      partrisolve::solve_two_dim(machine, l, map, rhs, x, m, opt);
  EXPECT_GT(fw.time(), 0.0);
  EXPECT_GT(bw.time(), 0.0);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-9) << "entry " << i;
  }
  EXPECT_LT(trisolve::relative_residual(a, x, rhs, m), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TwoDimSolveTest,
    ::testing::Values(Combo{1, 8, 1, false}, Combo{2, 8, 1, false},
                      Combo{4, 4, 1, false}, Combo{8, 8, 2, false},
                      Combo{16, 8, 1, false}, Combo{4, 3, 3, false},
                      Combo{8, 8, 1, true}, Combo{16, 4, 2, true}));

TEST(TwoDimSolve, SlowerThanPipelined1dAtScale) {
  // Figure 5's point: the 2-D formulation cannot pipeline.  Its per-block
  // collectives cost (t/b)·log q startups serially, versus q + t/b
  // pipelined for the 1-D algorithm — so the 1-D solver wins once
  // separators are large (3-D problems), which is the regime the paper's
  // asymptotic "unscalable" verdict describes.
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid3d(12, 12, 12),
      ordering::nested_dissection_grid3d(12, 12, 12));
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  const index_t p = 32;
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), p);
  const index_t n = a.n();
  Rng rng(62);
  std::vector<real_t> rhs = sparse::random_rhs(n, 1, rng);

  double t1d = 0.0, t2d = 0.0;
  {
    partrisolve::DistributedTrisolver solver(l, map, {});
    simpar::Machine machine = make_machine(p);
    std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
    auto [fw, bw] = solver.solve(machine, rhs, x, 1);
    t1d = fw.time() + bw.time();
  }
  {
    simpar::Machine machine = make_machine(p);
    std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
    auto [fw, bw] = partrisolve::solve_two_dim(machine, l, map, rhs, x, 1);
    t2d = fw.time() + bw.time();
  }
  EXPECT_GT(t2d, t1d) << "t1d=" << t1d << " t2d=" << t2d;
}

}  // namespace
}  // namespace sparts
