// Tests for exec::CheckedBackend — the message-passing auditor.  Each
// hazard the checker knows about (wildcard race, tag collision, orphaned
// send, deadlock cycle) gets a micro-program that provokes it on purpose,
// plus a clean full solver pipeline that must report zero findings.
// Registered under the CTest label `analysis`.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "exec/checked_backend.hpp"
#include "exec/thread_backend.hpp"
#include "simpar/machine.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"

namespace sparts {
namespace {

simpar::Machine make_machine(index_t p) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  return simpar::Machine(cfg);
}

exec::ThreadBackend make_threads(index_t p, double timeout = 30.0) {
  exec::ThreadBackend::Config cfg;
  cfg.nprocs = p;
  cfg.recv_timeout = timeout;
  return exec::ThreadBackend(cfg);
}

const exec::Finding* find_kind(const exec::AnalysisReport& report,
                               exec::Finding::Kind kind) {
  for (const auto& f : report.findings) {
    if (f.kind == kind) return &f;
  }
  return nullptr;
}

// Two ranks exchanging distinct tags: nothing to report, and the stats of
// the inner backend pass through the decorator untouched.
TEST(CheckedBackend, CleanPingPongReportsNoFindings) {
  simpar::Machine inner = make_machine(2);
  exec::CheckedBackend backend(inner);  // borrowed-backend constructor
  const exec::RunStats stats = backend.run([](exec::Process& proc) {
    std::vector<real_t> payload(16, 1.5);
    if (proc.rank() == 0) {
      proc.send_values<real_t>(1, 7, payload);
      (void)proc.recv_values<real_t>(1, 8);
    } else {
      (void)proc.recv_values<real_t>(0, 7);
      proc.send_values<real_t>(0, 8, payload);
    }
  });
  EXPECT_EQ(stats.total_messages(), 2);
  const exec::AnalysisReport& report = backend.report();
  EXPECT_TRUE(report.clean()) << report.summary();
  EXPECT_EQ(report.sends, 2);
  EXPECT_EQ(report.recvs, 2);
  EXPECT_EQ(report.wildcard_recvs, 0);
}

// The canonical wildcard race: two senders, one recv(kAnySource).  The
// sends are causally unrelated, so which one the first recv matches is
// schedule-dependent.  On the sequential simulator the two messages may
// never be pending simultaneously — the post-run happens-before pass must
// still flag the race deterministically.  (Ranks >= 3 idle: the simulated
// hypercube needs a power-of-two processor count.)
void racy_wildcard_program(exec::Process& proc) {
  if (proc.rank() == 0) {
    for (int i = 0; i < 2; ++i) {
      (void)proc.recv_values<real_t>(exec::kAnySource, 5);
    }
  } else if (proc.rank() <= 2) {
    proc.send_values<real_t>(0, 5,
                             std::vector<real_t>(4, double(proc.rank())));
  }
}

TEST(CheckedBackend, WildcardRaceFlaggedOnSimulator) {
  simpar::Machine inner = make_machine(4);
  exec::CheckedBackend backend(inner);
  backend.run(racy_wildcard_program);
  const exec::AnalysisReport& report = backend.report();
  EXPECT_EQ(report.wildcard_recvs, 2);
  const exec::Finding* f =
      find_kind(report, exec::Finding::Kind::wildcard_race);
  ASSERT_NE(f, nullptr) << report.summary();
  EXPECT_EQ(f->dst, 0);
  EXPECT_EQ(f->tag, 5);
  EXPECT_NE(f->detail.find("kAnySource"), std::string::npos) << f->detail;
}

TEST(CheckedBackend, WildcardRaceFlaggedOnThreads) {
  exec::ThreadBackend inner = make_threads(3);
  exec::CheckedBackend backend(inner);
  backend.run(racy_wildcard_program);
  const exec::AnalysisReport& report = backend.report();
  ASSERT_NE(find_kind(report, exec::Finding::Kind::wildcard_race), nullptr)
      << report.summary();
}

// A wildcard recv is NOT a race when the competing sends are causally
// ordered: here rank 2 only sends after rank 0 forwards it a token, which
// happens after rank 1's message was received.  The happens-before pass
// must see comparable vector clocks and stay silent.
TEST(CheckedBackend, CausallyOrderedWildcardIsNotARace) {
  simpar::Machine inner = make_machine(4);
  exec::CheckedBackend backend(inner);
  backend.run([](exec::Process& proc) {
    std::vector<real_t> token(1, 0.0);
    if (proc.rank() == 0) {
      (void)proc.recv_values<real_t>(exec::kAnySource, 5);
      proc.send_values<real_t>(2, 9, token);  // release the second sender
      (void)proc.recv_values<real_t>(exec::kAnySource, 5);
    } else if (proc.rank() == 1) {
      proc.send_values<real_t>(0, 5, token);
    } else if (proc.rank() == 2) {
      (void)proc.recv_values<real_t>(0, 9);
      proc.send_values<real_t>(0, 5, token);
    }
  });
  EXPECT_TRUE(backend.report().clean()) << backend.report().summary();
}

// Two back-to-back sends on the same (src, dst, tag) edge: legal FIFO
// traffic, but the tag no longer names a unique in-flight message.
TEST(CheckedBackend, TagCollisionFlagged) {
  simpar::Machine inner = make_machine(2);
  exec::CheckedBackend backend(inner);
  backend.run([](exec::Process& proc) {
    std::vector<real_t> payload(8, 2.0);
    if (proc.rank() == 0) {
      proc.send_values<real_t>(1, 3, payload);
      proc.send_values<real_t>(1, 3, payload);
    } else {
      (void)proc.recv_values<real_t>(0, 3);
      (void)proc.recv_values<real_t>(0, 3);
    }
  });
  const exec::Finding* f =
      find_kind(backend.report(), exec::Finding::Kind::tag_collision);
  ASSERT_NE(f, nullptr) << backend.report().summary();
  EXPECT_EQ(f->src, 0);
  EXPECT_EQ(f->dst, 1);
  EXPECT_EQ(f->tag, 3);
  EXPECT_NE(f->detail.find("still in flight"), std::string::npos)
      << f->detail;
}

TEST(CheckedBackend, OrphanedSendFlagged) {
  simpar::Machine inner = make_machine(2);
  exec::CheckedBackend backend(inner);
  backend.run([](exec::Process& proc) {
    if (proc.rank() == 0) {
      proc.send_values<real_t>(1, 4, std::vector<real_t>(4, 1.0));
    }
    // rank 1 never posts the matching recv.
  });
  const exec::Finding* f =
      find_kind(backend.report(), exec::Finding::Kind::orphaned_send);
  ASSERT_NE(f, nullptr) << backend.report().summary();
  EXPECT_EQ(f->src, 0);
  EXPECT_EQ(f->dst, 1);
  EXPECT_EQ(f->tag, 4);
  EXPECT_NE(f->detail.find("never received"), std::string::npos) << f->detail;
}

TEST(CheckedBackend, ThrowOnFindingsRaisesAnalysisError) {
  simpar::Machine inner = make_machine(2);
  exec::CheckedBackend::Options options;
  options.throw_on_findings = true;
  exec::CheckedBackend backend(inner, options);
  EXPECT_THROW(backend.run([](exec::Process& proc) {
                 if (proc.rank() == 0) {
                   proc.send_values<real_t>(1, 4,
                                            std::vector<real_t>(4, 1.0));
                 }
               }),
               AnalysisError);
  // The report survives the throw for post-mortem inspection.
  EXPECT_EQ(backend.report().count(exec::Finding::Kind::orphaned_send), 1);
}

// A two-rank recv/recv hold-and-wait: the inner backend detects the hang,
// and the checker turns it into a wait-for cycle naming both ranks and
// the tags they block on.
void deadlock_program(exec::Process& proc) {
  if (proc.rank() == 0) {
    (void)proc.recv_values<real_t>(1, 5);
  } else {
    (void)proc.recv_values<real_t>(0, 6);
  }
}

TEST(CheckedBackend, DeadlockCycleDiagnosedOnSimulator) {
  simpar::Machine inner = make_machine(2);
  exec::CheckedBackend backend(inner);
  try {
    backend.run(deadlock_program);
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock cycle"), std::string::npos) << what;
    EXPECT_NE(what.find("waits on"), std::string::npos) << what;
    EXPECT_NE(what.find("wait-for snapshot"), std::string::npos) << what;
  }
  const exec::Finding* f =
      find_kind(backend.report(), exec::Finding::Kind::deadlock_cycle);
  ASSERT_NE(f, nullptr) << backend.report().summary();
  EXPECT_NE(f->detail.find("tag 5"), std::string::npos) << f->detail;
  EXPECT_NE(f->detail.find("tag 6"), std::string::npos) << f->detail;
}

TEST(CheckedBackend, DeadlockCycleDiagnosedOnThreads) {
  exec::ThreadBackend inner = make_threads(2, /*timeout=*/2.0);
  exec::CheckedBackend backend(inner);
  EXPECT_THROW(backend.run(deadlock_program), DeadlockError);
  EXPECT_GE(backend.report().count(exec::Finding::Kind::deadlock_cycle), 1);
}

// The real workload criterion: a full distributed solve (parallel
// factorization + redistribution + pipelined triangular solves) under the
// message audit on the simulator finishes with zero findings and the same
// x as the unaudited run.  throw_on_findings is set inside parallel_solve,
// so any hazard would abort the run with AnalysisError.
TEST(CheckedBackend, FullParallelSolveRunsCleanUnderChecked) {
  const sparse::SymmetricCsc a = sparse::grid2d(20, 20);
  const index_t m = 2;
  std::vector<real_t> b(static_cast<std::size_t>(a.n() * m));
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0 + 0.01 * static_cast<real_t>(i % 17);
  }

  solver::Options opt;
  opt.check = true;
  const auto result = solver::parallel_solve(a, b, m, 8, opt);
  EXPECT_EQ(result.analysis_findings, 0);
  EXPECT_GT(result.checked_messages, 0);
  EXPECT_EQ(result.x, solver::parallel_solve(a, b, m, 8, {}).x);

  const auto reference = solver::SparseSolver::factorize(a).solve(b, m).x;
  ASSERT_EQ(result.x.size(), reference.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(result.x[i], reference[i], 1e-8);
  }
}

// Same audit on real concurrent threads and on the fiber scheduler
// (smaller problem: these pay for actual scheduling).  x stays
// bit-identical to plain sim, and the audit layer hides none of the tasks
// backend's own accounting.
TEST(CheckedBackend, ParallelSolveRunsCleanUnderCheckedThreads) {
  const sparse::SymmetricCsc a = sparse::grid2d(12, 12);
  std::vector<real_t> b(static_cast<std::size_t>(a.n()), 1.0);
  const auto plain = solver::parallel_solve(a, b, 1, 4, {});

  for (const auto backend :
       {solver::ExecutionBackend::threads, solver::ExecutionBackend::tasks}) {
    solver::Options opt;
    opt.backend = backend;
    opt.check = true;
    const auto result = solver::parallel_solve(a, b, 1, 4, opt);
    const std::string what = solver::execution_backend_info(backend).name;
    EXPECT_EQ(result.analysis_findings, 0) << what;
    EXPECT_GT(result.checked_messages, 0) << what;
    EXPECT_EQ(result.x, plain.x) << what;
    if (backend == solver::ExecutionBackend::tasks) {
      EXPECT_GT(result.task_scheduler.jobs_run, 0);
      EXPECT_TRUE(result.factor_critical_path.valid());
    }
  }
}

}  // namespace
}  // namespace sparts
