// The distributed solve allocates per phase, not per supernode: each rank
// sizes its working memory (a fragment stack for its shared supernodes and
// subtree-root tails, the in-place steps' scratch, packet and token
// buffers) once per forward()/backward(), so a sweep's heap traffic is
// O(p + messages) however many supernodes it walks.  The redistribution
// that feeds it stores only the shared supernodes, so its heap traffic is
// O(shared participations + messages).  This binary replaces the global
// allocation function to count every heap allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>  // sparts-lint: allow(naked-new)
#include <vector>

#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/dist_factor.hpp"
#include "partrisolve/partrisolve.hpp"
#include "redist/redist.hpp"
#include "simpar/machine.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"

namespace {
std::atomic<std::size_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t bytes) {  // sparts-lint: allow(naked-new)
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace sparts {
namespace {

/// Heap allocations so far.
std::size_t allocations() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

struct Problem {
  sparse::SymmetricCsc a;
  numeric::SupernodalFactor l;
};

Problem grid_problem(index_t k) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(k, k), ordering::nested_dissection_grid2d(k, k));
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  return {std::move(a), std::move(l)};
}

struct Counted {
  std::size_t forward_allocs = 0;
  std::size_t backward_allocs = 0;
  nnz_t forward_messages = 0;
  nnz_t backward_messages = 0;
};

Counted count_solve(const partrisolve::DistributedTrisolver& solver,
                    exec::Comm& comm, index_t n, index_t m) {
  Rng rng(17);
  const std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> y(b.size()), x(b.size());
  // Warm-up: the backend's first-use allocations are not the sweep's.
  solver.solve(comm, b, x, m);
  Counted c;
  std::size_t before = allocations();
  c.forward_messages = solver.forward(comm, b, y, m).stats.total_messages();
  c.forward_allocs = allocations() - before;
  before = allocations();
  c.backward_messages = solver.backward(comm, y, x, m).stats.total_messages();
  c.backward_allocs = allocations() - before;
  return c;
}

TEST(SolveAllocations, SequentialSweepAllocatesOncePerPhase) {
  // p = 1: every supernode is a single-rank step in place and no message
  // moves, so the fragment stack is empty and the sweep's allocations are
  // the phase's fixed working memory — none per supernode, whether the
  // solver is handed a DistributedFactor or packs its own.
  const Problem prob = grid_problem(31);
  const index_t nsup = prob.l.partition().num_supernodes();
  ASSERT_GT(nsup, 500);
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), 1);
  const auto df = partrisolve::DistributedFactor::pack_from(prob.l, map, 8);
  simpar::Machine::Config cfg;
  cfg.nprocs = 1;
  simpar::Machine machine(cfg);
  for (const partrisolve::DistributedFactor* local : {
           static_cast<const partrisolve::DistributedFactor*>(nullptr), &df}) {
    const partrisolve::DistributedTrisolver solver(prob.l, local, map, {});
    EXPECT_EQ(solver.fragment_stack_rows(0), 0);
    for (const index_t m : {index_t{1}, index_t{4}}) {
      const Counted c = count_solve(solver, machine, prob.a.n(), m);
      EXPECT_LE(c.forward_allocs, 32u) << "m=" << m;
      EXPECT_LE(c.backward_allocs, 32u) << "m=" << m;
    }
  }
}

/// Solves the 31x31 grid on `comm` and checks that beyond the per-rank
/// working memory each message costs its payload (and the backend's
/// delivery), never a per-supernode buffer: the single-rank subtrees
/// below the subcube boundary (most of the supernodes) run in place, and
/// only their roots' tails travel.
void expect_allocations_per_message(exec::Comm& comm) {
  const Problem prob = grid_problem(31);
  const index_t nsup = prob.l.partition().num_supernodes();
  const index_t p = comm.nprocs();
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), p);
  const partrisolve::DistributedTrisolver solver(prob.l, map, {});
  const Counted c = count_solve(solver, comm, prob.a.n(), 2);
  ASSERT_GT(c.forward_messages, 0);
  EXPECT_LE(c.forward_allocs, static_cast<std::size_t>(
                                  4 * c.forward_messages + 32 * p))
      << "nsup=" << nsup;
  EXPECT_LE(c.backward_allocs, static_cast<std::size_t>(
                                   4 * c.backward_messages + 32 * p))
      << "nsup=" << nsup;
  EXPECT_LT(c.forward_allocs, static_cast<std::size_t>(nsup));
  EXPECT_LT(c.backward_allocs, static_cast<std::size_t>(nsup));
}

TEST(SolveAllocations, ParallelSweepAllocatesPerMessageNotPerSupernode) {
  // p = 4 on the simulator, which keeps the count deterministic.
  simpar::Machine::Config cfg;
  cfg.nprocs = 4;
  simpar::Machine machine(cfg);
  expect_allocations_per_message(machine);
}

TEST(SolveAllocations, ThreadsSweepAllocatesPerMessageNotPerSupernode) {
  // The same bound on rank threads, where every payload is a heap block
  // of its own and a run starts its rank threads anew.
  exec::ThreadBackend::Config cfg;
  cfg.nprocs = 4;
  exec::ThreadBackend backend(cfg);
  expect_allocations_per_message(backend);
}

TEST(SolveAllocations, TasksSweepAllocatesPerMessageNotPerSupernode) {
  // ...and on fibers, where a run starts its scheduler and fiber stacks.
  // A fixed worker count keeps the scheduler's set-up independent of the
  // host's core count.
  exec::TaskBackend::Config cfg;
  cfg.nprocs = 4;
  cfg.scheduler.workers = 2;
  exec::TaskBackend backend(cfg);
  expect_allocations_per_message(backend);
}

TEST(SolveAllocations, RedistributionAllocatesPerSharedParticipation) {
  // The solve reads a single-rank supernode from the factor, so the
  // redistribution allocates for the (rank, shared supernode)
  // participations and the messages that move them, never once per
  // supernode below the subcube boundary.  A participation's allocations
  // are its packed block, its outgoing payloads (each reserved to its
  // exact size once) and the hypercube all-to-all's log q stages of
  // packets: about 11 per participation beyond the per-message and
  // per-rank terms at p = 8, 1.4 at p = 4.
  const Problem prob = grid_problem(95);
  const auto& part = prob.l.partition();
  const index_t nsup = part.num_supernodes();
  for (const index_t p : {index_t{4}, index_t{8}}) {
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, p);
    std::size_t participations = 0;
    for (index_t s = 0; s < nsup; ++s) {
      if (map.is_parallel(s)) {
        participations += static_cast<std::size_t>(
            map.group[static_cast<std::size_t>(s)].count);
      }
    }
    simpar::Machine::Config cfg;
    cfg.nprocs = p;
    simpar::Machine machine(cfg);
    partrisolve::DistributedFactor df;
    const std::size_t before = allocations();
    const nnz_t messages =
        redist::redistribute_factor(machine, prob.l, map, {}, &df)
            .stats.total_messages();
    const std::size_t allocs = allocations() - before;
    ASSERT_GT(messages, 0);
    EXPECT_LE(allocs, 16 * participations +
                          static_cast<std::size_t>(4 * messages + 32 * p))
        << "p=" << p << " participations=" << participations
        << " messages=" << messages;
    EXPECT_LT(allocs, static_cast<std::size_t>(nsup) / 2) << "p=" << p;
  }
}

}  // namespace
}  // namespace sparts
