// Numerical factorization and sequential triangular solves, swept over
// matrix families, orderings, and amalgamation settings (property-style).
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include <sstream>

#include "numeric/factor_io.hpp"
#include "numeric/multifrontal.hpp"
#include "numeric/simplicial.hpp"
#include "ordering/mindeg.hpp"
#include "ordering/nested_dissection.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts::numeric {
namespace {

sparse::SymmetricCsc make_family(const std::string& family, std::uint64_t seed) {
  Rng rng(seed);
  if (family == "grid2d") return sparse::grid2d(11, 9);
  if (family == "grid2d9") return sparse::grid2d(8, 8, 9);
  if (family == "grid3d") return sparse::grid3d(5, 4, 4);
  if (family == "grid3d27") return sparse::grid3d(4, 4, 3, 27);
  if (family == "random") return sparse::random_spd(80, 4, rng);
  if (family == "jittered") return sparse::jittered_mesh2d(9, 9, rng);
  if (family == "figure1") return sparse::figure1_matrix();
  throw Error("unknown family " + family);
}

// (family, ordering, amalgamate)
using Combo = std::tuple<std::string, std::string, bool>;

class FactorSolveTest : public ::testing::TestWithParam<Combo> {};

TEST_P(FactorSolveTest, ResidualIsTiny) {
  const auto& [family, ord, amalg] = GetParam();
  sparse::SymmetricCsc a0 = make_family(family, 99);
  sparse::Permutation perm =
      ord == "nd"   ? ordering::nested_dissection(a0)
      : ord == "md" ? ordering::minimum_degree(a0)
                    : sparse::Permutation(a0.n());
  sparse::SymmetricCsc a = sparse::permute_symmetric(a0, perm);

  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  symbolic::SupernodePartition part = symbolic::fundamental_supernodes(sym);
  if (amalg) part = symbolic::amalgamate(sym, part, 12, 6);

  FactorizationStats stats;
  const SupernodalFactor l = multifrontal_cholesky(a, part, &stats);
  EXPECT_GT(stats.flops, 0);

  const index_t n = a.n();
  const index_t m = 3;
  Rng rng(5);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x = b;
  trisolve::SolveStats sstats;
  trisolve::full_solve(l, x.data(), m, &sstats);
  EXPECT_GT(sstats.flops, 0);
  EXPECT_LT(trisolve::relative_residual(a, x, b, m), 1e-9)
      << family << "/" << ord << "/amalg=" << amalg;
}

INSTANTIATE_TEST_SUITE_P(
    Families, FactorSolveTest,
    ::testing::Combine(::testing::Values("grid2d", "grid2d9", "grid3d",
                                         "grid3d27", "random", "jittered",
                                         "figure1"),
                       ::testing::Values("nd", "md", "natural"),
                       ::testing::Bool()));

TEST(Multifrontal, MatchesSimplicialEntrywise) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid3d(4, 4, 3), ordering::nested_dissection_grid3d(4, 4, 3));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const CscFactor ref = simplicial_cholesky(a, sym);
  const SupernodalFactor l = multifrontal_cholesky(a);
  for (index_t j = 0; j < a.n(); ++j) {
    for (index_t i : sym.col_rows(j)) {
      EXPECT_NEAR(l.at(i, j), ref.at(i, j), 1e-11);
    }
  }
}

TEST(Multifrontal, RejectsIndefiniteMatrix) {
  sparse::Triplets t(3, 3);
  t.add(0, 0, 1.0);
  t.add(1, 1, 1.0);
  t.add(2, 2, 1.0);
  t.add(1, 0, 5.0);  // breaks positive definiteness
  sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  EXPECT_THROW(multifrontal_cholesky(a), NumericalError);
}

TEST(SimplicialCholesky, RejectsIndefiniteMatrix) {
  // Strictly diagonally dominant with some negative diagonal entries:
  // the elimination meets a negative pivot and names it.
  Rng rng(31);
  const sparse::SymmetricCsc a = sparse::random_symmetric_dd(60, 4, 0.4, rng);
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  EXPECT_THROW(simplicial_cholesky(a, sym), NumericalError);
}

TEST(SimplicialCholesky, RejectsExactZeroPivot) {
  // [[0, 1], [1, 1]]: the first pivot is exactly zero, which is not
  // positive either, so neither factorization takes its square root.
  sparse::Triplets t(2, 2);
  t.add(0, 0, 0.0);
  t.add(1, 1, 1.0);
  t.add(1, 0, 1.0);
  const sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  try {
    simplicial_cholesky(a, sym);
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("pivot at column 0"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(multifrontal_cholesky(a), NumericalError);
}

TEST(Multifrontal, StatsTrackPeaks) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(15, 15), ordering::nested_dissection_grid2d(15, 15));
  FactorizationStats stats;
  multifrontal_cholesky(a, &stats);
  EXPECT_GT(stats.peak_front_entries, 0);
  EXPECT_GT(stats.peak_stack_entries, 0);
  // The peak front is the square of the largest supernode height.
  EXPECT_LT(stats.peak_front_entries,
            static_cast<nnz_t>(a.n()) * a.n());
}

TEST(SupernodalFactor, AccessorsAndCounts) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(6, 6), ordering::nested_dissection_grid2d(6, 6));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const SupernodalFactor l = multifrontal_cholesky(a);
  EXPECT_EQ(l.factor_nnz(), sym.nnz());
  EXPECT_GE(l.stored_entries(), l.factor_nnz());
  EXPECT_GT(l.solve_flops(2), l.solve_flops(1));
  // Entries outside the structure read as zero.
  EXPECT_DOUBLE_EQ(l.at(a.n() - 1, 0) != 0.0 ||
                       sym.col_rows(0).back() != a.n() - 1,
                   true);
}

TEST(SimplicialSolves, ForwardBackwardRoundTrip) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(9, 9), ordering::nested_dissection_grid2d(9, 9));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const CscFactor l = simplicial_cholesky(a, sym);
  const index_t n = a.n(), m = 2;
  Rng rng(17);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x = b;
  csc_forward_solve(l, x.data(), m);
  csc_backward_solve(l, x.data(), m);
  EXPECT_LT(trisolve::relative_residual(a, x, b, m), 1e-10);
}

TEST(Trisolve, ForwardOnlyMatchesSimplicialForward) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(7, 7), ordering::nested_dissection_grid2d(7, 7));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const CscFactor lref = simplicial_cholesky(a, sym);
  const SupernodalFactor l = multifrontal_cholesky(a);
  const index_t n = a.n();
  Rng rng(23);
  std::vector<real_t> b = sparse::random_rhs(n, 1, rng);
  std::vector<real_t> y1 = b, y2 = b;
  trisolve::forward_solve(l, y1.data(), 1);
  csc_forward_solve(lref, y2.data(), 1);
  for (index_t i = 0; i < n; ++i) {
    EXPECT_NEAR(y1[static_cast<std::size_t>(i)],
                y2[static_cast<std::size_t>(i)], 1e-11);
  }
}

TEST(FactorIo, RoundTripThroughStream) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(11, 9), ordering::nested_dissection_grid2d(11, 9));
  const SupernodalFactor original = multifrontal_cholesky(a);

  std::stringstream ss;
  write_factor(original, ss);
  const SupernodalFactor loaded = read_factor(ss);

  ASSERT_EQ(loaded.num_supernodes(), original.num_supernodes());
  ASSERT_EQ(loaded.n(), original.n());
  for (index_t s = 0; s < original.num_supernodes(); ++s) {
    auto ob = original.block(s);
    auto lb = loaded.block(s);
    ASSERT_EQ(ob.size(), lb.size());
    for (std::size_t z = 0; z < ob.size(); ++z) {
      EXPECT_DOUBLE_EQ(ob[z], lb[z]);
    }
  }

  // The loaded factor must solve.
  const index_t n = a.n(), m = 2;
  Rng rng(41);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x = b;
  trisolve::full_solve(loaded, x.data(), m);
  EXPECT_LT(trisolve::relative_residual(a, x, b, m), 1e-10);
}

TEST(FactorIo, RejectsGarbage) {
  std::stringstream ss("definitely not a factor file");
  EXPECT_THROW(read_factor(ss), IoError);
}

}  // namespace
}  // namespace sparts::numeric
