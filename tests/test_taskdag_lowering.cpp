// The walk-order guarantee: the SPMD programs of factorization and the
// triangular solves walk supernodes in ascending id (backward: descending),
// and every lowering of that walk — the sequential loop, and the SPMD
// ranks on threads or on the work-stealing task scheduler's fibers — must
// produce bit-identical numbers.  These tests pin that contract:
//
//   * every dependency of a supernode points to a larger id (its parent
//     and the supernodes that own its below rows), on fundamental and on
//     amalgamated partitions, which is what makes the ascending walk
//     correct (docs/taskdag.md, the walk-order rule);
//   * a solver's reused plan carries no state between solves;
//   * DistributedTrisolver at p = 1 == trisolve::full_solve bit for bit
//     (every supernode is a single-rank step in place, reading the
//     factor), on every backend, whether the solver is handed a
//     DistributedFactor or packs its own;
//   * parallel_solve(--backend tasks) == parallel_solve(--backend threads)
//     bit for bit on a corpus of matrices and processor counts, including
//     a forest of chains in natural order (a multi-root elimination tree);
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
#include "partrisolve/dist_factor.hpp"
#include "partrisolve/partrisolve.hpp"
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
  // A forest of 24 chains: a disconnected graph, a multi-root partition.
  if (family == "wide-flat") return sparse::wide_flat(24, 8);
  throw Error("unknown family " + family);
}

sparse::SymmetricCsc ordered(const std::string& family) {
  sparse::SymmetricCsc a = make_family(family);
  return sparse::permute_symmetric(a, ordering::nested_dissection(a));
}

symbolic::SupernodePartition partition_of(const sparse::SymmetricCsc& a) {
  return symbolic::fundamental_supernodes(symbolic::symbolic_cholesky(a));
}

const char* kFamilies[] = {"grid2d",   "grid3d",  "chain",    "random",
                           "jittered", "figure1", "wide-flat"};

/// The walk-order rule on one partition: for every supernode s, its
/// parent is -1 or larger than s, and every below row of s lies in a
/// supernode larger than s.
void expect_walk_order(const symbolic::SupernodePartition& part,
                       const std::string& what) {
  const index_t nsup = part.num_supernodes();
  for (index_t s = 0; s < nsup; ++s) {
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    ASSERT_TRUE(parent == -1 || parent > s)
        << what << ": supernode " << s << " has parent " << parent;
    const auto rows = part.row_indices(s);
    for (std::size_t k = static_cast<std::size_t>(part.width(s));
         k < rows.size(); ++k) {
      const index_t owner =
          part.sup_of_col[static_cast<std::size_t>(rows[k])];
      ASSERT_GT(owner, s) << what << ": below row " << rows[k]
                          << " of supernode " << s;
    }
  }
}

TEST(TaskDagLowering, EveryDependencyPointsToALargerSupernode) {
  // The SPMD walks rely on this: ascending id visits a supernode after
  // every child and every contribution source, and descending id visits
  // it after every supernode whose solved rows it reads.
  for (const char* family : kFamilies) {
    const sparse::SymmetricCsc a = ordered(family);
    expect_walk_order(partition_of(a), family);
  }
  // Options::amalgamation_max_width hands the walks a merged partition.
  const sparse::SymmetricCsc a = ordered("grid3d");
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const symbolic::SupernodePartition fundamental =
      symbolic::fundamental_supernodes(sym);
  const symbolic::SupernodePartition merged =
      symbolic::amalgamate(sym, fundamental, 16, 8);
  ASSERT_LT(merged.num_supernodes(), fundamental.num_supernodes());
  expect_walk_order(merged, "grid3d amalgamated");
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
              (local != nullptr ? " given " : " self-packed ") +
              (comm == &sim ? "sim" : comm == &threads ? "threads" : "tasks");
          EXPECT_EQ(y, y_seq) << what;
          EXPECT_EQ(x, x_seq) << what;
        }
      }
    }
  }
}

/// parallel_solve on the tasks backend against the thread backend on one
/// matrix: x bit-identical, and only tasks reports scheduler activity.
/// Returns the x they agree on.
std::vector<real_t> expect_tasks_match_threads(
    const sparse::SymmetricCsc& a, const std::vector<real_t>& b, index_t m,
    index_t p, solver::OrderingMethod ordering, const std::string& what) {
  solver::Options threads_opt;
  threads_opt.backend = solver::ExecutionBackend::threads;
  threads_opt.ordering = ordering;
  solver::Options tasks_opt = threads_opt;
  tasks_opt.backend = solver::ExecutionBackend::tasks;
  const auto rt = solver::parallel_solve(a, b, m, p, threads_opt);
  const auto rk = solver::parallel_solve(a, b, m, p, tasks_opt);
  EXPECT_EQ(rt.x, rk.x) << what;
  EXPECT_GT(rk.task_scheduler.jobs_run, 0) << what;
  EXPECT_EQ(rt.task_scheduler.jobs_run, 0) << what;
  return rk.x;
}

TEST(TaskDagLowering, ParallelSolveTasksMatchesThreadsBitwise) {
  // The full distributed pipeline: the tasks backend runs the identical
  // SPMD programs (rank fibers instead of rank threads), so x must match
  // the thread backend bit for bit.
  const index_t m = 2;
  for (const char* family :
       {"grid2d", "grid3d", "random", "figure1", "wide-flat"}) {
    const sparse::SymmetricCsc a = make_family(family);
    Rng rng(7);
    const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
    for (const index_t p : {index_t{4}, index_t{8}}) {
      expect_tasks_match_threads(
          a, b, m, p, solver::OrderingMethod::nested_dissection,
          std::string(family) + " p=" + std::to_string(p));
    }
  }
  // The forest in natural order keeps one elimination-tree path per chain,
  // so the subcube mapping deals out 24 independent subtrees, down to one
  // or two per rank at p = 16.
  const sparse::SymmetricCsc a = make_family("wide-flat");
  Rng rng(7);
  const std::vector<real_t> b = sparse::random_rhs(a.n(), m, rng);
  for (const index_t p : {index_t{4}, index_t{8}, index_t{16}}) {
    const std::string what = "wide-flat natural p=" + std::to_string(p);
    const std::vector<real_t> x = expect_tasks_match_threads(
        a, b, m, p, solver::OrderingMethod::natural, what);
    EXPECT_LE(trisolve::relative_residual(a, x, b, m), 1e-12) << what;
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
