// Distributed symbolic factorization: exact agreement with the sequential
// analysis across processor counts and matrix families.
#include <gtest/gtest.h>

#include <vector>

#include "ordering/nested_dissection.hpp"
#include "parfact/parsymbolic.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/symbolic.hpp"
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

void expect_equal(const symbolic::SymbolicFactor& a,
                  const symbolic::SymbolicFactor& b) {
  ASSERT_EQ(a.n, b.n);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (index_t j = 0; j < a.n; ++j) {
    auto ra = a.col_rows(j);
    auto rb = b.col_rows(j);
    ASSERT_EQ(ra.size(), rb.size()) << "column " << j;
    for (std::size_t k = 0; k < ra.size(); ++k) {
      EXPECT_EQ(ra[k], rb[k]) << "column " << j << " slot " << k;
    }
  }
}

class ParSymbolicTest : public ::testing::TestWithParam<index_t> {};

TEST_P(ParSymbolicTest, MatchesSequentialOnGrid) {
  const index_t p = GetParam();
  const sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(17, 15), ordering::nested_dissection_grid2d(17, 15));
  const symbolic::SymbolicFactor ref = symbolic::symbolic_cholesky(a);
  simpar::Machine machine = make_machine(p);
  const auto result = parfact::parallel_symbolic(machine, a);
  expect_equal(result.symbolic, ref);
  EXPECT_GT(result.time(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Powers, ParSymbolicTest,
                         ::testing::Values<index_t>(1, 2, 4, 8, 16, 32));

TEST(ParSymbolic, MatchesSequentialOnRandomMatrices) {
  Rng rng(81);
  for (int trial = 0; trial < 4; ++trial) {
    sparse::SymmetricCsc a0 = sparse::random_spd(70, 3, rng);
    sparse::SymmetricCsc a =
        sparse::permute_symmetric(a0, ordering::nested_dissection(a0));
    const symbolic::SymbolicFactor ref = symbolic::symbolic_cholesky(a);
    simpar::Machine machine = make_machine(8);
    const auto result = parfact::parallel_symbolic(machine, a);
    expect_equal(result.symbolic, ref);
  }
}

TEST(ParSymbolic, ScalesOnLargeProblem) {
  const sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid3d(12, 12, 12),
      ordering::nested_dissection_grid3d(12, 12, 12));
  double t1 = 0.0, t16 = 0.0;
  for (index_t p : {1, 16}) {
    simpar::Machine machine = make_machine(p);
    const auto result = parfact::parallel_symbolic(machine, a);
    (p == 1 ? t1 : t16) = result.time();
  }
  EXPECT_GT(t1 / t16, 2.0) << "t1=" << t1 << " t16=" << t16;
}

}  // namespace
}  // namespace sparts
