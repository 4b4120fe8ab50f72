// Parallel multifrontal factorization must reproduce the sequential
// factor; redistribution must route every entry correctly and cost a
// fraction of the solve (the paper's §4 claim).
#include <gtest/gtest.h>

#include <vector>

#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "parfact/parfact.hpp"
#include "partrisolve/partrisolve.hpp"
#include "partrisolve/dist_factor.hpp"
#include "redist/redist.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
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

struct ProblemSetup {
  sparse::SymmetricCsc a;
  symbolic::SupernodePartition part;
  numeric::SupernodalFactor seq;
};

ProblemSetup make_problem(index_t k, bool three_d = false) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      three_d ? sparse::grid3d(k, k, k) : sparse::grid2d(k, k),
      three_d ? ordering::nested_dissection_grid3d(k, k, k)
              : ordering::nested_dissection_grid2d(k, k));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  symbolic::SupernodePartition part = symbolic::fundamental_supernodes(sym);
  numeric::SupernodalFactor seq = numeric::multifrontal_cholesky(a, part);
  return ProblemSetup{std::move(a), std::move(part), std::move(seq)};
}

class ParfactTest
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(ParfactTest, MatchesSequentialFactor) {
  const auto [p, b2d] = GetParam();
  ProblemSetup su = make_problem(13);
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(
      su.part, p, mapping::factor_work_weights(su.part));

  simpar::Machine machine = make_machine(p);
  numeric::SupernodalFactor par;
  parfact::Options opt;
  opt.block_2d = b2d;
  auto report =
      parfact::parallel_multifrontal(machine, su.a, su.part, map, par, opt);
  EXPECT_GT(report.time(), 0.0);

  for (index_t s = 0; s < su.part.num_supernodes(); ++s) {
    auto ref = su.seq.block(s);
    auto got = par.block(s);
    ASSERT_EQ(ref.size(), got.size());
    const index_t ns = su.part.height(s);
    const index_t t = su.part.width(s);
    for (index_t k = 0; k < t; ++k) {
      for (index_t i = k; i < ns; ++i) {  // above-diagonal entries unused
        EXPECT_NEAR(ref[static_cast<std::size_t>(k * ns + i)],
                    got[static_cast<std::size_t>(k * ns + i)], 1e-9)
            << "supernode " << s << " entry (" << i << ", " << k << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParfactTest,
                         ::testing::Values(std::pair<index_t, index_t>{1, 8},
                                           std::pair<index_t, index_t>{2, 4},
                                           std::pair<index_t, index_t>{4, 4},
                                           std::pair<index_t, index_t>{8, 2},
                                           std::pair<index_t, index_t>{8, 3},
                                           std::pair<index_t, index_t>{16,
                                                                       4}));

TEST(Parfact, AmalgamatedPartitionMatchesSequential) {
  // The distributed factorization must handle relaxed supernodes (whose
  // trapezoids carry explicit zeros) identically to the sequential code.
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(15, 15), ordering::nested_dissection_grid2d(15, 15));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  symbolic::SupernodePartition part = symbolic::fundamental_supernodes(sym);
  part = symbolic::amalgamate(sym, part, 16, 8);
  const numeric::SupernodalFactor seq =
      numeric::multifrontal_cholesky(a, part);

  const index_t p = 8;
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(
      part, p, mapping::factor_work_weights(part));
  simpar::Machine machine = make_machine(p);
  numeric::SupernodalFactor par;
  parfact::parallel_multifrontal(machine, a, part, map, par);
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    auto rb = seq.block(s);
    auto gb = par.block(s);
    const index_t ns = part.height(s);
    for (index_t k = 0; k < part.width(s); ++k) {
      for (index_t i = k; i < ns; ++i) {
        EXPECT_NEAR(rb[static_cast<std::size_t>(k * ns + i)],
                    gb[static_cast<std::size_t>(k * ns + i)], 1e-9);
      }
    }
  }
}

TEST(Redist, BlockSizeCombinations) {
  // Every (2-D block, 1-D block) combination must route correctly,
  // including non-divisible and mismatched sizes.
  ProblemSetup su = make_problem(11);
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(su.part, 8);
  for (index_t b2 : {3, 8, 16}) {
    for (index_t b1 : {1, 5, 8}) {
      redist::Options opt;
      opt.block_2d = b2;
      opt.block_1d = b1;
      partrisolve::DistributedFactor df;
      simpar::Machine machine = make_machine(8);
      // Throws on any misrouted entry.
      redist::redistribute_factor(machine, su.seq, map, opt, &df);
      const auto direct =
          partrisolve::DistributedFactor::pack_from(su.seq, map, b1);
      for (index_t s = 0; s < su.part.num_supernodes(); ++s) {
        const auto& g = map.group[static_cast<std::size_t>(s)];
        for (index_t r = 0; r < g.count; ++r) {
          EXPECT_EQ(df.local_block(g.world(r), s),
                    direct.local_block(g.world(r), s))
              << "b2=" << b2 << " b1=" << b1 << " s=" << s;
        }
      }
    }
  }
}

TEST(Parfact, Grid3dFactorThenSolveEndToEnd) {
  ProblemSetup su = make_problem(6, /*three_d=*/true);
  const index_t p = 8;
  const mapping::SubcubeMapping fmap = mapping::subtree_to_subcube(
      su.part, p, mapping::factor_work_weights(su.part));

  simpar::Machine machine = make_machine(p);
  numeric::SupernodalFactor par;
  parfact::parallel_multifrontal(machine, su.a, su.part, fmap, par);

  // Solve with the parallel-produced factor.
  const index_t n = su.a.n();
  const index_t m = 2;
  Rng rng(21);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  const mapping::SubcubeMapping smap =
      mapping::subtree_to_subcube(su.part, p);
  partrisolve::DistributedTrisolver solver(par, smap, {});
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  simpar::Machine machine2 = make_machine(p);
  solver.solve(machine2, rhs, x, m);
  EXPECT_LT(trisolve::relative_residual(su.a, x, rhs, m), 1e-9);
}

TEST(Parfact, SpeedupAtPaperScale) {
  ProblemSetup su = make_problem(63);
  double t1 = 0.0, t16 = 0.0;
  for (index_t p : {1, 16}) {
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(
        su.part, p, mapping::factor_work_weights(su.part));
    simpar::Machine machine = make_machine(p);
    numeric::SupernodalFactor par;
    auto report =
        parfact::parallel_multifrontal(machine, su.a, su.part, map, par);
    (p == 1 ? t1 : t16) = report.time();
  }
  EXPECT_GT(t1 / t16, 4.0) << "t1=" << t1 << " t16=" << t16;
}

class RedistTest : public ::testing::TestWithParam<index_t> {};

TEST_P(RedistTest, RoutesEveryEntry) {
  const index_t p = GetParam();
  ProblemSetup su = make_problem(13);
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(su.part, p);
  simpar::Machine machine = make_machine(p);
  // redistribute_factor throws on any misrouted entry.
  auto report = redist::redistribute_factor(machine, su.seq, map);
  if (p > 1) {
    EXPECT_GT(report.time(), 0.0);
    EXPECT_GT(report.stats.total_messages(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Powers, RedistTest,
                         ::testing::Values<index_t>(1, 2, 4, 8, 16));

TEST(Redist, CostIsFractionOfSolve) {
  // Paper §4/§5: on the T3D the redistribution takes at most 0.9x (avg
  // ~0.5x) the single-RHS solve time.
  ProblemSetup su = make_problem(63);
  const index_t p = 16;
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(su.part, p);

  simpar::Machine machine = make_machine(p);
  auto redist_report = redist::redistribute_factor(machine, su.seq, map);

  partrisolve::DistributedTrisolver solver(su.seq, map, {});
  const index_t n = su.a.n();
  Rng rng(2);
  std::vector<real_t> rhs = sparse::random_rhs(n, 1, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
  simpar::Machine machine2 = make_machine(p);
  auto [fw, bw] = solver.solve(machine2, rhs, x, 1);

  const double ratio = redist_report.time() / (fw.time() + bw.time());
  EXPECT_LT(ratio, 1.5) << "redistribution should not dwarf the solve";
  EXPECT_GT(ratio, 0.0);
}

}  // namespace
}  // namespace sparts
