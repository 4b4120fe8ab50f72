// Pins the simulator's determinism contract: two runs of the same SPMD
// program on fresh Machines produce bit-identical RunStats, even when
// receives use kAnySource (the scheduler's tie-breaking — smallest
// effective time, then smallest rank; message matching by earliest
// arrival, then smallest source, then send sequence — leaves no freedom).
// The exec-layer refactor moved this code; these tests guarantee the
// semantics did not move with it.
#include <gtest/gtest.h>

#include <vector>

#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/partrisolve.hpp"
#include "simpar/machine.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"

namespace sparts {
namespace {

simpar::Machine make_machine(index_t p) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::t3d();
  cfg.topology = exec::TopologyKind::hypercube;
  return simpar::Machine(cfg);
}

// Bit-identical, not approximately equal: determinism means the exact same
// floating-point clock values fall out of both runs.
void expect_bit_identical(const exec::RunStats& a, const exec::RunStats& b) {
  ASSERT_EQ(a.procs.size(), b.procs.size());
  for (std::size_t r = 0; r < a.procs.size(); ++r) {
    const exec::ProcStats& pa = a.procs[r];
    const exec::ProcStats& pb = b.procs[r];
    EXPECT_EQ(pa.clock, pb.clock) << "rank " << r;
    EXPECT_EQ(pa.compute_time, pb.compute_time) << "rank " << r;
    EXPECT_EQ(pa.send_time, pb.send_time) << "rank " << r;
    EXPECT_EQ(pa.idle_time, pb.idle_time) << "rank " << r;
    EXPECT_EQ(pa.flops, pb.flops) << "rank " << r;
    EXPECT_EQ(pa.messages_sent, pb.messages_sent) << "rank " << r;
    EXPECT_EQ(pa.words_sent, pb.words_sent) << "rank " << r;
  }
}

TEST(DeterministicReplay, AnySourceFanInIsReplayedBitIdentically) {
  // Every rank > 0 sends a staggered burst to rank 0; rank 0 consumes the
  // whole burst through kAnySource.  The matched order (and therefore the
  // stats) must be a pure function of the program.
  constexpr index_t p = 8;
  constexpr int rounds = 5;

  auto run_once = [&](std::vector<index_t>* order) {
    simpar::Machine machine = make_machine(p);
    return machine.run([&](exec::Process& proc) {
      if (proc.rank() == 0) {
        for (int i = 0; i < rounds * (p - 1); ++i) {
          const auto msg = proc.recv(exec::kAnySource, /*tag=*/1);
          if (order != nullptr) order->push_back(msg.source);
          proc.compute(100.0, exec::FlopKind::blas1);
        }
      } else {
        for (int i = 0; i < rounds; ++i) {
          // Desynchronize the senders so ties and near-ties both occur.
          proc.compute(50.0 * static_cast<double>(proc.rank()),
                       exec::FlopKind::blas1);
          const std::vector<real_t> payload(
              static_cast<std::size_t>(proc.rank()), 1.0);
          proc.send_values<real_t>(0, 1, payload);
        }
      }
    });
  };

  std::vector<index_t> order1, order2;
  const exec::RunStats s1 = run_once(&order1);
  const exec::RunStats s2 = run_once(&order2);
  EXPECT_EQ(order1, order2);
  expect_bit_identical(s1, s2);
}

TEST(DeterministicReplay, TrisolveRunStatsAreBitIdentical) {
  // The full pipelined trisolve — the paper's workload — replayed on a
  // fresh Machine must reproduce every clock exactly.
  sparse::SymmetricCsc a0 = sparse::grid2d(15, 15);
  const sparse::Permutation perm = ordering::nested_dissection_grid2d(15, 15);
  sparse::SymmetricCsc a = sparse::permute_symmetric(a0, perm);
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  const index_t n = a.n();
  constexpr index_t p = 8;
  constexpr index_t m = 3;

  Rng rng(11);
  const std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), p);

  auto solve_once = [&](std::vector<real_t>* x_out) {
    partrisolve::DistributedTrisolver solver(l, map, partrisolve::Options{});
    simpar::Machine machine = make_machine(p);
    std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
    auto [fw, bw] = solver.solve(machine, rhs, x, m);
    if (x_out != nullptr) *x_out = x;
    return std::pair{fw.stats, bw.stats};
  };

  std::vector<real_t> x1, x2;
  const auto [fw1, bw1] = solve_once(&x1);
  const auto [fw2, bw2] = solve_once(&x2);
  expect_bit_identical(fw1, fw2);
  expect_bit_identical(bw1, bw2);
  EXPECT_EQ(x1, x2);  // the arithmetic, too, is replayed exactly
}

TEST(DeterministicReplay, TaskBackendArithmeticIsReplayedBitIdentically) {
  // The tasks backend cannot promise bit-identical *times* (it measures
  // wall clock) but must promise bit-identical *arithmetic*: replaying the
  // pipelined trisolve on fresh TaskBackends — and on the thread backend —
  // yields the exact same x.  Deterministic message matching (per-(src,
  // tag) FIFO, no wildcard freedom in this program) makes every execution
  // order produce the same value at every memory location.
  sparse::SymmetricCsc a0 = sparse::grid2d(15, 15);
  const sparse::Permutation perm = ordering::nested_dissection_grid2d(15, 15);
  sparse::SymmetricCsc a = sparse::permute_symmetric(a0, perm);
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  const index_t n = a.n();
  constexpr index_t p = 8;
  constexpr index_t m = 3;

  Rng rng(11);
  const std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), p);
  partrisolve::DistributedTrisolver solver(l, map, partrisolve::Options{});

  auto solve_on = [&](exec::Comm& machine) {
    std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
    (void)solver.solve(machine, rhs, x, m);
    return x;
  };

  exec::TaskBackend::Config cfg;
  cfg.nprocs = p;
  exec::TaskBackend tasks1(cfg), tasks2(cfg);
  const std::vector<real_t> x1 = solve_on(tasks1);
  const std::vector<real_t> x2 = solve_on(tasks2);
  EXPECT_EQ(x1, x2);

  exec::ThreadBackend::Config tcfg;
  tcfg.nprocs = p;
  tcfg.recv_timeout = 30.0;
  exec::ThreadBackend threads(tcfg);
  EXPECT_EQ(x1, solve_on(threads));
}

}  // namespace
}  // namespace sparts
