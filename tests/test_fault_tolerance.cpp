// End-to-end fault-tolerance scenarios through solver::parallel_solve:
// the reliability envelope must recover from injected drops, duplicates,
// delays, reorders and stalls with a solution bit-identical to the clean
// run; a crash must surface as a structured SolveError (no hang); and a
// singular matrix must complete with degraded status under the perturbing
// pivot policy, on the host (p = 0) as in the parallel pipeline.
// Registered under the CTest label `faults` and included in the TSan
// preset, so the threaded scenarios run under the race detector.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/formats.hpp"
#include "sparse/generators.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts {
namespace {

struct Problem {
  sparse::SymmetricCsc a;
  std::vector<real_t> b;
};

Problem make_problem() {
  Problem prob{sparse::grid2d(12, 12), {}};
  Rng rng(17);
  prob.b = sparse::random_rhs(prob.a.n(), 1, rng);
  return prob;
}

solver::ParallelSolveResult clean_solve(const Problem& prob) {
  solver::Options opt;
  opt.backend = solver::ExecutionBackend::simulated;
  return solver::parallel_solve(prob.a, prob.b, 1, 4, opt);
}

solver::ParallelSolveResult faulty_solve(
    const Problem& prob, const std::string& plan,
    solver::ExecutionBackend backend = solver::ExecutionBackend::simulated,
    bool check = false) {
  solver::Options opt;
  opt.backend = backend;
  opt.faults = exec::FaultPlan::parse(plan);
  opt.check = check;
  return solver::parallel_solve(prob.a, prob.b, 1, 4, opt);
}

/// Sets an environment variable for one scope and restores it after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(FaultTolerance, EnvelopeWithoutFaultsMatchesCleanRunBitwise) {
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  const auto r = faulty_solve(prob, "seed=1");
  EXPECT_EQ(clean.x, r.x);
  EXPECT_EQ(r.status, solver::SolveStatus::ok);
  EXPECT_EQ(r.faults_injected, 0);
  EXPECT_EQ(r.retransmits, 0);
}

TEST(FaultTolerance, RecoversFromDropsBitIdentical) {
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  for (const int seed : {7, 11, 42}) {
    const auto r = faulty_solve(
        prob, "seed=" + std::to_string(seed) + ",drop=0.25");
    EXPECT_EQ(clean.x, r.x) << "seed " << seed;
    EXPECT_EQ(r.status, solver::SolveStatus::ok);
    EXPECT_GT(r.faults_injected, 0);
    EXPECT_GT(r.retransmits, 0);
  }
}

TEST(FaultTolerance, RecoversFromMixedFaultsBitIdentical) {
  // Also under the message audit: it sits above the envelope, so it sees
  // exactly-once delivery and reports nothing.
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  for (const bool check : {false, true}) {
    const auto r = faulty_solve(
        prob, "seed=42,drop=0.1,dup=0.1,delay=0.2:0.0005,reorder=0.1",
        solver::ExecutionBackend::simulated, check);
    EXPECT_EQ(clean.x, r.x) << "check " << check;
    EXPECT_EQ(r.status, solver::SolveStatus::ok);
    EXPECT_GT(r.faults_injected, 0);
    EXPECT_EQ(r.analysis_findings, 0);
    EXPECT_EQ(r.checked_messages > 0, check);
    EXPECT_LT(trisolve::relative_residual(prob.a, r.x, prob.b, 1), 1e-9);
  }
}

TEST(FaultTolerance, RecoversFromStall) {
  // A 5 ms stall on rank 2 is well inside the envelope's backed-off retry
  // horizon, so peers NACK through it and the run converges.
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  const auto r = faulty_solve(prob, "seed=1,stall=2@0.005");
  EXPECT_EQ(clean.x, r.x);
  EXPECT_EQ(r.status, solver::SolveStatus::ok);
  EXPECT_GT(r.faults_injected, 0);  // the stall itself is counted
}

TEST(FaultTolerance, ThreadsBackendRecoversFromDropsBitIdentical) {
  // Shrink the wall-clock retransmit timeout (SPARTS_TIMEOUT_MS is the
  // documented knob) so the many recovery waits stay fast even under TSan.
  const ScopedEnv timeout("SPARTS_TIMEOUT_MS", "5");
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  for (const bool check : {false, true}) {
    const auto r = faulty_solve(prob, "seed=42,drop=0.15",
                                solver::ExecutionBackend::threads, check);
    EXPECT_EQ(clean.x, r.x) << "check " << check;
    EXPECT_EQ(r.status, solver::SolveStatus::ok);
    EXPECT_GT(r.faults_injected, 0);
    EXPECT_GT(r.retransmits, 0);
    EXPECT_EQ(r.analysis_findings, 0);
    EXPECT_EQ(r.checked_messages > 0, check);
  }
}

TEST(FaultTolerance, TasksBackendRecoversFromDropsBitIdentical) {
  // The fault stack over the fiber backend at several workers, where a
  // polling rank and a computing sender run at once: the envelope's NACK
  // deadlines must be wall time there too.
  const ScopedEnv timeout("SPARTS_TIMEOUT_MS", "5");
  const ScopedEnv workers("SPARTS_TASK_WORKERS", "4");
  const Problem prob = make_problem();
  const auto clean = clean_solve(prob);
  const auto r = faulty_solve(prob, "seed=42,drop=0.15",
                              solver::ExecutionBackend::tasks);
  EXPECT_EQ(clean.x, r.x);
  EXPECT_EQ(r.status, solver::SolveStatus::ok);
  EXPECT_GT(r.faults_injected, 0);
  EXPECT_GT(r.retransmits, 0);
}

TEST(FaultTolerance, TimeoutUnderTheAuditNamesTheSupernode) {
  // The audit sits above the envelope; the progress note the factorization
  // leaves per supernode must still reach the envelope's timeout report.
  const ScopedEnv retry("SPARTS_MAX_RETRY", "1");
  const Problem prob = make_problem();
  try {
    faulty_solve(prob, "seed=3,drop=0.9", solver::ExecutionBackend::simulated,
                 /*check=*/true);
    FAIL() << "expected SolveError";
  } catch (const solver::SolveError& e) {
    EXPECT_NE(std::string(e.what()).find("fact supernode"),
              std::string::npos)
        << e.what();
  }
}

TEST(FaultTolerance, LayersRejectBackendsTheyCannotCompose) {
  // Rejected before any rank starts: either layer over separate processes,
  // or over the host solve (p = 0), which sends no messages.
  const Problem prob = make_problem();
  auto solve = [&](solver::ExecutionBackend backend, index_t p, bool check,
                   bool faults) {
    solver::Options opt;
    opt.backend = backend;
    opt.check = check;
    if (faults) opt.faults = exec::FaultPlan::parse("seed=1");
    return solver::parallel_solve(prob.a, prob.b, 1, p, opt);
  };
  EXPECT_THROW(solve(solver::ExecutionBackend::proc, 4, false, true),
               InvalidArgument);
  EXPECT_THROW(solve(solver::ExecutionBackend::proc, 4, true, false),
               InvalidArgument);
  EXPECT_THROW(solve(solver::ExecutionBackend::simulated, 0, false, true),
               InvalidArgument);
  EXPECT_THROW(solve(solver::ExecutionBackend::simulated, 0, true, false),
               InvalidArgument);
}

TEST(FaultTolerance, CrashProducesStructuredSolveError) {
  const Problem prob = make_problem();
  try {
    faulty_solve(prob, "seed=1,crash=1@5");
    FAIL() << "expected SolveError";
  } catch (const solver::SolveError& e) {
    EXPECT_EQ(e.failed_phase(), "factorization");
    EXPECT_NE(e.cause().find("injected"), std::string::npos) << e.cause();
    // The progress report names every rank and where it was.
    EXPECT_NE(e.progress().find("rank 0"), std::string::npos)
        << e.progress();
    EXPECT_NE(e.progress().find("rank 3"), std::string::npos)
        << e.progress();
  }
}

TEST(FaultTolerance, CrashOnThreadsProducesStructuredSolveErrorNoHang) {
  // The acceptance gate for shutdown hardening: a rank dying mid-phase on
  // the real thread backend must leave no peer blocked — the run ends, all
  // threads join, and the caller gets a structured error.
  const Problem prob = make_problem();
  try {
    faulty_solve(prob, "seed=1,crash=1@5", solver::ExecutionBackend::threads);
    FAIL() << "expected SolveError";
  } catch (const solver::SolveError& e) {
    EXPECT_EQ(e.failed_phase(), "factorization");
    EXPECT_FALSE(e.progress().empty());
  }
}

// ---------------------------------------------------------------------------
// Graceful numerical degradation.

/// Free-boundary path-graph Laplacian: tridiagonal, diag = vertex degree,
/// off-diag -1.  Exactly singular (ones spans the null space), and under
/// natural ordering every elimination step is exact integer arithmetic, so
/// the final pivot is an exact floating-point zero — a deterministic
/// tiny-pivot scenario.
sparse::SymmetricCsc path_laplacian(index_t n) {
  sparse::Triplets t(n, n);
  for (index_t i = 0; i < n; ++i) {
    const real_t deg = (i == 0 || i == n - 1) ? 1.0 : 2.0;
    t.add(i, i, deg);
    if (i + 1 < n) t.add(i + 1, i, -1.0);
  }
  return sparse::SymmetricCsc::from_triplets(t);
}

TEST(Degradation, SingularMatrixFailsInDefaultPivotMode) {
  const sparse::SymmetricCsc a = path_laplacian(16);
  std::vector<real_t> v(16, 0.0), b(16, 0.0);
  for (index_t i = 0; i < 16; ++i) v[static_cast<std::size_t>(i)] =
      0.25 * static_cast<real_t>(i + 1);
  a.symv(1.0, v, b);
  solver::Options opt;
  opt.ordering = solver::OrderingMethod::natural;
  EXPECT_THROW(solver::parallel_solve(a, b, 1, 4, opt), NumericalError);
}

TEST(Degradation, SingularMatrixCompletesDegradedWithPerturbedPivots) {
  const sparse::SymmetricCsc a = path_laplacian(16);
  // Consistent right-hand side b = A v: a solution exists even though A is
  // singular, so refinement can drive the residual down.
  std::vector<real_t> v(16, 0.0), b(16, 0.0);
  for (index_t i = 0; i < 16; ++i) v[static_cast<std::size_t>(i)] =
      0.25 * static_cast<real_t>(i + 1);
  a.symv(1.0, v, b);

  solver::Options opt;
  opt.ordering = solver::OrderingMethod::natural;
  opt.pivot_mode = dense::PivotMode::perturb;
  // The host solver (p = 0) and the parallel pipeline share the
  // accounting and the refinement.
  for (const index_t p : {0, 4}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    const auto r = solver::parallel_solve(a, b, 1, p, opt);
    EXPECT_EQ(r.status, solver::SolveStatus::degraded);
    EXPECT_GE(r.perturbed_pivots, 1);
    // Refinement ran (residual was computed) and converged.
    EXPECT_GE(r.residual, 0.0);
    EXPECT_LT(r.residual, 1e-8);
    EXPECT_LT(trisolve::relative_residual(a, r.x, b, 1), 1e-8);
  }
}

TEST(Degradation, PerturbModeLeavesHealthyMatricesUntouched) {
  const Problem prob = make_problem();
  solver::Options opt;
  opt.pivot_mode = dense::PivotMode::perturb;
  for (const index_t p : {0, 4}) {
    SCOPED_TRACE("p = " + std::to_string(p));
    const auto clean = solver::parallel_solve(prob.a, prob.b, 1, p);
    const auto r = solver::parallel_solve(prob.a, prob.b, 1, p, opt);
    EXPECT_EQ(r.status, solver::SolveStatus::ok);
    EXPECT_EQ(r.perturbed_pivots, 0);
    EXPECT_EQ(r.refine_iterations, 0);
    EXPECT_LT(r.residual, 0.0);  // no refinement ran
    EXPECT_EQ(clean.x, r.x);
  }
}

}  // namespace
}  // namespace sparts
