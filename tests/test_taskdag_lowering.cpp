// The lowering guarantee (see parfact/factor_dag.hpp and
// partrisolve/solve_dag.hpp): factorization and the triangular solves are
// expressed once as supernode task DAGs, and every lowering of those
// graphs — the sequential loop, and the SPMD ranks walking the topological
// schedule on threads or on the work-stealing task scheduler's fibers —
// must produce bit-identical numbers.  These tests pin that contract:
//
//   * the coarse/forward DAG schedules are exactly 0..nsup-1 (all edges go
//     small -> large id), which is what makes walking the schedule
//     byte-identical to the historical `for s` loops;
//   * the graph stats the SPMD lowerings cache (DistributedTrisolver,
//     parallel_multifrontal) equal analyze() of the built graphs, field
//     for field, and a solver's reused plan carries no state between
//     solves;
//   * DistributedTrisolver at p = 1 == trisolve::full_solve bit for bit
//     (every supernode is a single-rank step in place), on every backend
//     and from the shared factor or rank-local storage alike;
//   * parallel_solve(--backend tasks) == parallel_solve(--backend threads)
//     bit for bit on a corpus of matrices and processor counts;
//   * the --backend registry holds the four machines, round-trips, and
//     rejects junk (and the retired layer spellings) with a message that
//     enumerates every registered name.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "parfact/factor_dag.hpp"
#include "parfact/parfact.hpp"
#include "partrisolve/dist_factor.hpp"
#include "partrisolve/partrisolve.hpp"
#include "partrisolve/solve_dag.hpp"
#include "simpar/machine.hpp"
#include "solver/sparse_solver.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"

namespace sparts {
namespace {

sparse::SymmetricCsc make_family(const std::string& family) {
  Rng rng(271828);
  if (family == "grid2d") return sparse::grid2d(11, 9);
  if (family == "grid3d") return sparse::grid3d(5, 4, 4);
  if (family == "chain") return sparse::grid2d(60, 1);  // path: chain etree
  if (family == "random") return sparse::random_spd(80, 4, rng);
  if (family == "jittered") return sparse::jittered_mesh2d(9, 9, rng);
  if (family == "figure1") return sparse::figure1_matrix();
  throw Error("unknown family " + family);
}

sparse::SymmetricCsc ordered(const std::string& family) {
  sparse::SymmetricCsc a = make_family(family);
  return sparse::permute_symmetric(a, ordering::nested_dissection(a));
}

symbolic::SupernodePartition partition_of(const sparse::SymmetricCsc& a) {
  return symbolic::fundamental_supernodes(symbolic::symbolic_cholesky(a));
}

const char* kFamilies[] = {"grid2d", "grid3d", "chain", "random",
                           "jittered", "figure1"};

TEST(TaskDagLowering, CoarseAndForwardSchedulesAreAscending) {
  // Every edge of the supernode DAG (and of the forward-solve DAG) goes
  // from a smaller id to a larger one, so the deterministic
  // smallest-ready-id-first schedule is exactly 0, 1, ..., nsup-1.  The
  // SPMD loops rely on this to stay byte-identical to the historical
  // ascending-supernode loops.
  for (const char* family : kFamilies) {
    const sparse::SymmetricCsc a = ordered(family);
    const symbolic::SupernodePartition part = partition_of(a);
    const index_t nsup = part.num_supernodes();
    for (const exec::TaskGraph& g : {parfact::build_supernode_dag(part),
                                     partrisolve::build_forward_dag(part)}) {
      const std::vector<exec::TaskId> sched = g.topo_schedule();
      ASSERT_EQ(static_cast<index_t>(sched.size()), nsup) << family;
      for (index_t s = 0; s < nsup; ++s) {
        ASSERT_EQ(sched[static_cast<std::size_t>(s)], s) << family;
      }
    }
  }
}

void expect_same_stats(const exec::GraphStats& got,
                       const exec::GraphStats& want, const std::string& what) {
  EXPECT_EQ(got.tasks, want.tasks) << what;
  EXPECT_EQ(got.edges, want.edges) << what;
  EXPECT_EQ(got.total_cost, want.total_cost) << what;
  EXPECT_EQ(got.critical_path_cost, want.critical_path_cost) << what;
  EXPECT_EQ(got.depth, want.depth) << what;
  EXPECT_EQ(got.max_width, want.max_width) << what;
  EXPECT_EQ(got.avg_parallelism, want.avg_parallelism) << what;
  for (std::size_t k = 0; k < std::size(want.kind_counts); ++k) {
    EXPECT_EQ(got.kind_counts[k], want.kind_counts[k])
        << what << " kind " << k;
  }
}

TEST(TaskDagLowering, CachedGraphStatsMatchAnalyze) {
  // The SPMD lowerings report their DAG's shape from a direct sweep
  // computed once per solver / factorization; it must equal analyze() of
  // the materialized graph exactly.
  constexpr index_t p = 4;
  for (const char* family : kFamilies) {
    const sparse::SymmetricCsc a = ordered(family);
    const symbolic::SupernodePartition part = partition_of(a);
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, p);
    simpar::Machine::Config cfg;
    cfg.nprocs = p;
    simpar::Machine machine(cfg);

    numeric::SupernodalFactor l;
    const parfact::Report fact =
        parfact::parallel_multifrontal(machine, a, part, map, l);
    expect_same_stats(fact.graph,
                      parfact::build_supernode_dag(part).analyze(),
                      std::string(family) + " parfact");

    const partrisolve::DistributedTrisolver solver(l, map, {});
    const index_t n = a.n();
    Rng rng(3);
    const std::vector<real_t> b = sparse::random_rhs(n, 1, rng);
    std::vector<real_t> y(b.size()), x(b.size());
    expect_same_stats(solver.forward(machine, b, y, 1).graph,
                      partrisolve::build_forward_dag(part).analyze(),
                      std::string(family) + " forward");
    expect_same_stats(solver.backward(machine, y, x, 1).graph,
                      partrisolve::build_backward_dag(part).analyze(),
                      std::string(family) + " backward");
  }
}

TEST(TaskDagLowering, ReusedSolvePlanMatchesFreshSolverBitwise) {
  // One solver serves several right-hand-side batches; each x must equal
  // the x of a solver built just for that batch, on both real backends.
  for (const char* family : {"grid2d", "grid3d", "random"}) {
    const sparse::SymmetricCsc a = ordered(family);
    const symbolic::SupernodePartition part = partition_of(a);
    const numeric::SupernodalFactor l =
        numeric::multifrontal_cholesky(a, part);
    const index_t n = a.n();
    for (const index_t p : {index_t{1}, index_t{4}}) {
      const mapping::SubcubeMapping map =
          mapping::subtree_to_subcube(part, p);
      exec::ThreadBackend::Config tcfg;
      tcfg.nprocs = p;
      exec::ThreadBackend threads(tcfg);
      exec::TaskBackend::Config kcfg;
      kcfg.nprocs = p;
      kcfg.scheduler.workers = 2;
      exec::TaskBackend tasks(kcfg);
      for (exec::Comm* comm : {static_cast<exec::Comm*>(&threads),
                               static_cast<exec::Comm*>(&tasks)}) {
        const partrisolve::DistributedTrisolver reused(l, map, {});
        for (const index_t m : {index_t{1}, index_t{3}, index_t{2}}) {
          Rng rng(static_cast<std::uint64_t>(100 + m));
          const std::vector<real_t> b = sparse::random_rhs(n, m, rng);
          std::vector<real_t> x_reused(b.size()), x_fresh(b.size());
          reused.solve(*comm, b, x_reused, m);
          const partrisolve::DistributedTrisolver fresh(l, map, {});
          fresh.solve(*comm, b, x_fresh, m);
          EXPECT_EQ(x_reused, x_fresh)
              << family << " p=" << p << " m=" << m
              << (comm == &threads ? " threads" : " tasks");
        }
      }
    }
  }
}

TEST(TaskDagLowering, OneRankDistributedSolveMatchesSequentialBitwise) {
  // At p = 1 the distributed solver runs trisolve's per-supernode steps
  // in trisolve's order, in place: y and x must equal the sequential
  // phases' bit for bit.
  for (const char* family : kFamilies) {
    const sparse::SymmetricCsc a = ordered(family);
    const symbolic::SupernodePartition part = partition_of(a);
    const numeric::SupernodalFactor l =
        numeric::multifrontal_cholesky(a, part);
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, 1);
    const partrisolve::DistributedFactor strict =
        partrisolve::DistributedFactor::pack_from(
            l, map, partrisolve::Options{}.block_size);
    simpar::Machine::Config scfg;
    scfg.nprocs = 1;
    simpar::Machine sim(scfg);
    exec::ThreadBackend::Config tcfg;
    tcfg.nprocs = 1;
    exec::ThreadBackend threads(tcfg);
    exec::TaskBackend::Config kcfg;
    kcfg.nprocs = 1;
    exec::TaskBackend tasks(kcfg);
    for (const index_t m : {index_t{1}, index_t{3}}) {
      Rng rng(static_cast<std::uint64_t>(60 + m));
      const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
      std::vector<real_t> y_seq = b;
      trisolve::forward_solve(l, y_seq.data(), m);
      std::vector<real_t> x_seq = y_seq;
      trisolve::backward_solve(l, x_seq.data(), m);
      for (const partrisolve::DistributedFactor* local :
           {static_cast<const partrisolve::DistributedFactor*>(nullptr),
            &strict}) {
        const partrisolve::DistributedTrisolver solver(l, local, map, {});
        for (exec::Comm* comm : {static_cast<exec::Comm*>(&sim),
                                 static_cast<exec::Comm*>(&threads),
                                 static_cast<exec::Comm*>(&tasks)}) {
          std::vector<real_t> y(b.size()), x(b.size());
          solver.forward(*comm, b, y, m);
          solver.backward(*comm, y, x, m);
          const std::string what =
              std::string(family) + " m=" + std::to_string(m) +
              (local != nullptr ? " strict " : " shared ") +
              (comm == &sim ? "sim" : comm == &threads ? "threads" : "tasks");
          EXPECT_EQ(y, y_seq) << what;
          EXPECT_EQ(x, x_seq) << what;
        }
      }
    }
  }
}

TEST(TaskDagLowering, ParallelSolveTasksMatchesThreadsBitwise) {
  // The full distributed pipeline: the tasks backend runs the identical
  // SPMD programs (rank fibers instead of rank threads), so x must match
  // the thread backend bit for bit.
  for (const char* family : {"grid2d", "grid3d", "random", "figure1"}) {
    const sparse::SymmetricCsc a = make_family(family);
    const index_t m = 2;
    Rng rng(7);
    const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
    for (const index_t p : {index_t{4}, index_t{8}}) {
      solver::Options threads_opt;
      threads_opt.backend = solver::ExecutionBackend::threads;
      solver::Options tasks_opt;
      tasks_opt.backend = solver::ExecutionBackend::tasks;
      const auto rt = solver::parallel_solve(a, b, m, p, threads_opt);
      const auto rk = solver::parallel_solve(a, b, m, p, tasks_opt);
      EXPECT_EQ(rt.x, rk.x) << family << " p=" << p;
      // DAG shapes are reported for both backends (the SPMD loops lower
      // the same graphs), and only the tasks backend reports scheduler
      // activity.
      EXPECT_EQ(rt.factor_dag.tasks, rk.factor_dag.tasks) << family;
      EXPECT_EQ(rt.forward_dag.edges, rk.forward_dag.edges) << family;
      EXPECT_GT(rk.factor_dag.tasks, 0) << family;
      EXPECT_GT(rk.task_scheduler.jobs_run, 0) << family;
      EXPECT_EQ(rt.task_scheduler.jobs_run, 0) << family;
    }
  }
}

TEST(TaskDagLowering, BackendRegistryRoundTripsAndRejectsJunk) {
  EXPECT_EQ(solver::execution_backend_names(), "sim | threads | tasks | proc");
  for (const solver::BackendInfo& info : solver::execution_backends()) {
    EXPECT_EQ(solver::parse_execution_backend(info.name), info.backend);
    EXPECT_EQ(solver::execution_backend_info(info.backend).name,
              std::string(info.name));
  }
  // The audit and the fault stack are layers (--check, --faults), not
  // backends; their old spellings are junk like any other.
  for (const char* junk : {"bogus", "checked", "faulty-threads"}) {
    try {
      solver::parse_execution_backend(junk);
      ADD_FAILURE() << "expected InvalidArgument for " << junk;
    } catch (const InvalidArgument& e) {
      // The error enumerates every registered spelling.
      const std::string what = e.what();
      for (const solver::BackendInfo& info : solver::execution_backends()) {
        EXPECT_NE(what.find(info.name), std::string::npos) << info.name;
      }
    }
  }
}

}  // namespace
}  // namespace sparts
