// The high-level solver facade and the analytical models.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "model/model.hpp"
#include "solver/condest.hpp"
#include "solver/report.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts {
namespace {

class SolverOrderingTest
    : public ::testing::TestWithParam<solver::OrderingMethod> {};

TEST_P(SolverOrderingTest, EndToEndResidual) {
  const sparse::SymmetricCsc a = sparse::grid2d(14, 12);
  solver::Options opt;
  opt.ordering = GetParam();
  const solver::SparseSolver s = solver::SparseSolver::factorize(a, opt);
  EXPECT_GT(s.info().factor_nnz, a.nnz_lower());
  EXPECT_GT(s.info().num_supernodes, 0);

  const index_t n = a.n(), m = 4;
  Rng rng(3);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x = s.solve(b, m).x;
  EXPECT_LT(trisolve::relative_residual(a, x, b, m), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Orderings, SolverOrderingTest,
    ::testing::Values(solver::OrderingMethod::natural,
                      solver::OrderingMethod::nested_dissection,
                      solver::OrderingMethod::minimum_degree,
                      solver::OrderingMethod::rcm));

TEST(Solver, AmalgamationOptionStillSolves) {
  const sparse::SymmetricCsc a = sparse::grid3d(5, 5, 4);
  solver::Options opt;
  opt.amalgamation_max_width = 16;
  opt.amalgamation_relax_zeros = 8;
  const solver::SparseSolver s = solver::SparseSolver::factorize(a, opt);
  const index_t n = a.n();
  Rng rng(4);
  std::vector<real_t> b = sparse::random_rhs(n, 1, rng);
  std::vector<real_t> x = s.solve(b, 1).x;
  EXPECT_LT(trisolve::relative_residual(a, x, b, 1), 1e-9);
}

TEST(Solver, NestedDissectionBeatsNaturalFill) {
  const sparse::SymmetricCsc a = sparse::grid2d(20, 20);
  solver::Options nat;
  nat.ordering = solver::OrderingMethod::natural;
  solver::Options nd;
  nd.ordering = solver::OrderingMethod::nested_dissection;
  const auto s_nat = solver::SparseSolver::factorize(a, nat);
  const auto s_nd = solver::SparseSolver::factorize(a, nd);
  EXPECT_LT(s_nd.info().factor_nnz, s_nat.info().factor_nnz);
}

TEST(ParallelSolver, FullPipelineResidualAndTimings) {
  // BCSSTK15-like scale so factorization dominates, as in the paper.
  const sparse::SymmetricCsc a = sparse::grid2d(63, 63, 9);
  const index_t n = a.n(), m = 1;
  Rng rng(5);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  auto result = solver::parallel_solve(a, b, m, 8);
  EXPECT_LT(trisolve::relative_residual(a, result.x, b, m), 1e-9);
  EXPECT_GT(result.factor_time, 0.0);
  EXPECT_GT(result.redist_time, 0.0);
  EXPECT_GT(result.forward_time, 0.0);
  EXPECT_GT(result.backward_time, 0.0);
  // Paper headline: solve is a small fraction of factorization.
  EXPECT_LT(result.solve_time(), result.factor_time);
}

TEST(Report, ContainsKeySections) {
  const sparse::SymmetricCsc a = sparse::grid2d(12, 12);
  const solver::SparseSolver s = solver::SparseSolver::factorize(a);
  solver::ReportOptions opt;
  opt.max_p = 16;
  const std::string report = solver::analysis_report(s, opt);
  EXPECT_NE(report.find("nnz(L)"), std::string::npos);
  EXPECT_NE(report.find("supernodes"), std::string::npos);
  EXPECT_NE(report.find("load imbalance"), std::string::npos);
  EXPECT_NE(report.find("projected speedup"), std::string::npos) << report;
  EXPECT_NE(report.find("width histogram"), std::string::npos);
}

TEST(ParallelSolver, DeterministicAcrossRuns) {
  // The whole distributed pipeline (factorization, redistribution,
  // solves) must be bit-identical run to run: timings AND values.
  const sparse::SymmetricCsc a = sparse::grid2d(19, 17);
  Rng rng(71);
  const std::vector<real_t> b = sparse::random_rhs(a.n(), 2, rng);
  const auto r1 = solver::parallel_solve(a, b, 2, 8);
  const auto r2 = solver::parallel_solve(a, b, 2, 8);
  EXPECT_EQ(r1.x, r2.x);
  EXPECT_DOUBLE_EQ(r1.factor_time, r2.factor_time);
  EXPECT_DOUBLE_EQ(r1.redist_time, r2.redist_time);
  EXPECT_DOUBLE_EQ(r1.forward_time, r2.forward_time);
  EXPECT_DOUBLE_EQ(r1.backward_time, r2.backward_time);
}

/// Factor once, solve many: one factorization serves solves with different
/// right-hand sides and widths, each bit-identical to a fresh
/// parallel_solve of the same system (on sim, with the same phase times).
class FactorOnceSolveMany
    : public ::testing::TestWithParam<solver::ExecutionBackend> {};

TEST_P(FactorOnceSolveMany, EachSolveMatchesAFreshParallelSolve) {
  const sparse::SymmetricCsc a = sparse::grid2d(13, 11);
  constexpr index_t p = 4;
  solver::Options opt;
  opt.backend = GetParam();
  const solver::SparseSolver s = solver::SparseSolver::factorize(a, opt, p);
  Rng rng(97);
  for (const index_t m : {1, 3, 2}) {
    const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
    const solver::ParallelSolveResult r = s.solve(b, m);
    const solver::ParallelSolveResult fresh =
        solver::parallel_solve(a, b, m, p, opt);
    EXPECT_EQ(r.x, fresh.x) << "m=" << m;
    EXPECT_LT(trisolve::relative_residual(a, r.x, b, m), 1e-9);
    if (opt.backend == solver::ExecutionBackend::simulated) {
      EXPECT_DOUBLE_EQ(r.factor_time, fresh.factor_time);
      EXPECT_DOUBLE_EQ(r.redist_time, fresh.redist_time);
      EXPECT_DOUBLE_EQ(r.forward_time, fresh.forward_time);
      EXPECT_DOUBLE_EQ(r.backward_time, fresh.backward_time);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FactorOnceSolveMany,
    ::testing::Values(solver::ExecutionBackend::simulated,
                      solver::ExecutionBackend::threads,
                      solver::ExecutionBackend::tasks),
    [](const ::testing::TestParamInfo<solver::ExecutionBackend>& info) {
      return std::string(solver::execution_backend_info(info.param).name);
    });

TEST(Solver, AnalysisAndEstimatesAgreeAcrossProcessorCounts) {
  // Ordering and analysis are the same at every p, so is the report; the
  // condition estimate differs only by the factors' rounding.
  const sparse::SymmetricCsc a = sparse::grid2d(14, 14, 5, 1e-2);
  const solver::SparseSolver host = solver::SparseSolver::factorize(a);
  const solver::SparseSolver par = solver::SparseSolver::factorize(a, {}, 4);
  EXPECT_EQ(solver::analysis_report(host), solver::analysis_report(par));
  const real_t cond_host = solver::estimate_condition(host).condition();
  const real_t cond_par = solver::estimate_condition(par).condition();
  EXPECT_NEAR(cond_par, cond_host, 1e-8 * cond_host);
}

TEST(CondEst, IdentityIsWellConditioned) {
  sparse::Triplets t(20, 20);
  for (index_t i = 0; i < 20; ++i) t.add(i, i, 1.0);
  sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  const solver::SparseSolver s = solver::SparseSolver::factorize(a);
  const auto est = solver::estimate_condition(s);
  EXPECT_NEAR(est.condition(), 1.0, 1e-10);
}

TEST(CondEst, DiagonalMatrixExactCondition) {
  // diag(1, ..., 1, eps): cond_1 = 1/eps exactly, and Hager finds it.
  const real_t eps = 1e-4;
  sparse::Triplets t(10, 10);
  for (index_t i = 0; i < 9; ++i) t.add(i, i, 1.0);
  t.add(9, 9, eps);
  sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  solver::Options opt;
  opt.ordering = solver::OrderingMethod::natural;
  const solver::SparseSolver s = solver::SparseSolver::factorize(a, opt);
  const auto est = solver::estimate_condition(s);
  EXPECT_NEAR(est.condition(), 1.0 / eps, 1.0);
}

TEST(CondEst, ShiftControlsLaplacianConditioning) {
  // The generator's diagonal shift bounds cond(A) ~ O(1/shift); the
  // estimator must track it.
  auto cond_of = [](real_t shift) {
    const sparse::SymmetricCsc a = sparse::grid2d(14, 14, 5, shift);
    const solver::SparseSolver s = solver::SparseSolver::factorize(a);
    return solver::estimate_condition(s).condition();
  };
  const real_t mild = cond_of(1e-1);
  const real_t harsh = cond_of(1e-4);
  EXPECT_GT(mild, 1.0);
  EXPECT_GT(harsh, 10.0 * mild);
}

TEST(Model, TermsAndWork) {
  using model::GraphClass;
  EXPECT_GT(model::solve_work(GraphClass::two_dimensional, 1000.0), 1000.0);
  EXPECT_NEAR(model::solve_work(GraphClass::three_dimensional, 4096.0),
              std::pow(4096.0, 4.0 / 3.0), 1e-6);
  auto terms = model::runtime_terms(GraphClass::two_dimensional, 1.0e4, 16.0);
  EXPECT_NEAR(terms[1], 100.0, 1e-9);
  EXPECT_NEAR(terms[2], 16.0, 1e-9);
}

TEST(Model, FitRecoversExactCoefficients) {
  using model::GraphClass;
  const std::array<double, 3> truth{2.5e-7, 3.0e-6, 8.0e-5};
  std::vector<model::Sample> samples;
  for (double n : {1.0e3, 4.0e3, 1.6e4, 6.4e4}) {
    for (double p : {1.0, 4.0, 16.0, 64.0}) {
      samples.push_back(
          {n, p, model::runtime(GraphClass::two_dimensional, n, p, truth)});
    }
  }
  auto fit = model::fit_runtime_model(GraphClass::two_dimensional, samples);
  EXPECT_GT(fit.r_squared, 0.999999);
  for (int i = 0; i < 3; ++i) {
    EXPECT_NEAR(fit.coeff[static_cast<std::size_t>(i)],
                truth[static_cast<std::size_t>(i)],
                1e-6 * truth[static_cast<std::size_t>(i)] + 1e-12);
  }
}

TEST(Model, OverheadGrowsWithP) {
  using model::GraphClass;
  const std::array<double, 3> c{1e-7, 1e-6, 1e-4};
  const double o4 = model::overhead(GraphClass::three_dimensional, 1e4, 4, c);
  const double o64 =
      model::overhead(GraphClass::three_dimensional, 1e4, 64, c);
  EXPECT_GT(o64, o4);
}

TEST(Model, IsoefficiencyIsQuadratic) {
  EXPECT_DOUBLE_EQ(model::isoefficiency_work(10.0), 100.0);
  EXPECT_DOUBLE_EQ(model::isoefficiency_work(100.0) /
                       model::isoefficiency_work(10.0),
                   100.0);
}

TEST(Model, Figure5TableShape) {
  auto rows = model::figure5_rows();
  ASSERT_EQ(rows.size(), 6u);
  int unscalable = 0;
  for (const auto& r : rows) {
    EXPECT_FALSE(r.matrix_type.empty());
    EXPECT_FALSE(r.overall_iso.empty());
    if (r.solve_iso == "unscalable") ++unscalable;
  }
  // Every 2-D-partitioned solver row is unscalable (the paper's point).
  EXPECT_EQ(unscalable, 3);
}

}  // namespace
}  // namespace sparts
