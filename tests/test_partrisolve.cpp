// The distributed triangular solvers must reproduce the sequential solves
// exactly (up to roundoff) for every combination of processor count, block
// size, pipelining variant, right-hand-side count, and matrix family.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <tuple>
#include <vector>

#include "dense/cholesky.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/dense_trisolve.hpp"
#include "partrisolve/dist_factor.hpp"
#include "partrisolve/layout.hpp"
#include "partrisolve/partrisolve.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "trisolve/trisolve.hpp"
#include "simpar/machine.hpp"

namespace sparts {
namespace {

using partrisolve::DistributedTrisolver;
using partrisolve::Options;
using partrisolve::Pipelining;

struct Problem {
  sparse::SymmetricCsc a;
  numeric::SupernodalFactor l;
};

Problem make_grid_problem(index_t k, bool three_d = false) {
  sparse::SymmetricCsc a0 =
      three_d ? sparse::grid3d(k, k, k) : sparse::grid2d(k, k);
  const sparse::Permutation perm =
      three_d ? ordering::nested_dissection_grid3d(k, k, k)
              : ordering::nested_dissection_grid2d(k, k);
  sparse::SymmetricCsc a = sparse::permute_symmetric(a0, perm);
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  return Problem{std::move(a), std::move(l)};
}

simpar::Machine make_machine(index_t p) {
  simpar::Machine::Config cfg;
  cfg.nprocs = p;
  cfg.cost = exec::CostModel::t3d();
  cfg.topology = exec::TopologyKind::hypercube;
  return simpar::Machine(cfg);
}

// (p, block size, nrhs, pipelining variant, shared supernodes packed by
// the caller rather than by the solver)
using Combo = std::tuple<index_t, index_t, index_t, Pipelining, bool>;

class ParTrisolveTest : public ::testing::TestWithParam<Combo> {};

TEST_P(ParTrisolveTest, MatchesSequentialSolveOnGrid2d) {
  const auto [p, b, m, variant, strict] = GetParam();
  Problem prob = make_grid_problem(13);
  const index_t n = prob.a.n();
  const auto& part = prob.l.partition();

  Rng rng(7);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);

  // Sequential reference.
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(prob.l, ref.data(), m);

  // Distributed solve.
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, p);
  if (p > 1) {
    // Single-rank subtrees hang below shared supernodes: their roots'
    // tails cross the subcube boundary.
    bool boundary = false;
    for (index_t s = 0; s < part.num_supernodes(); ++s) {
      const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
      boundary = boundary || (parent != -1 && !map.is_parallel(s) &&
                              map.is_parallel(parent));
    }
    ASSERT_TRUE(boundary);
  }
  Options opt;
  opt.block_size = b;
  opt.pipelining = variant;
  const auto df = partrisolve::DistributedFactor::pack_from(prob.l, map, b);
  DistributedTrisolver solver(prob.l, strict ? &df : nullptr, map, opt);
  simpar::Machine machine = make_machine(p);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  auto [fw, bw] = solver.solve(machine, rhs, x, m);

  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-9) << "entry " << i;
  }
  EXPECT_GT(fw.time(), 0.0);
  EXPECT_GT(bw.time(), 0.0);
  EXPECT_LT(trisolve::relative_residual(prob.a, x, rhs, m), 1e-9);
}

constexpr auto kCol = Pipelining::column_priority;
constexpr auto kRow = Pipelining::row_priority;
constexpr auto kFan = Pipelining::fan_out;

INSTANTIATE_TEST_SUITE_P(
    Sweep, ParTrisolveTest,
    ::testing::Values(
        Combo{1, 8, 1, kCol, false}, Combo{2, 8, 1, kCol, false},
        Combo{4, 8, 1, kCol, false}, Combo{8, 8, 1, kCol, false},
        Combo{16, 8, 1, kCol, false}, Combo{4, 1, 1, kCol, false},
        Combo{4, 3, 1, kCol, false}, Combo{8, 2, 3, kCol, false},
        Combo{4, 8, 5, kCol, false}, Combo{8, 8, 30, kCol, false},
        Combo{2, 8, 1, kRow, false}, Combo{4, 4, 2, kRow, false},
        Combo{8, 8, 1, kRow, false}, Combo{16, 2, 3, kRow, false},
        Combo{2, 8, 1, kFan, false}, Combo{4, 4, 2, kFan, false},
        Combo{8, 8, 1, kFan, false}, Combo{16, 3, 4, kFan, false}));

// Single-rank subtrees under shared supernodes: every pipelining, with the
// shared supernodes packed by the caller or by the solver.
INSTANTIATE_TEST_SUITE_P(
    MixedSubtrees, ParTrisolveTest,
    ::testing::Combine(::testing::Values<index_t>(2, 4, 8),
                       ::testing::Values<index_t>(1, 3, 8),
                       ::testing::Values<index_t>(3),
                       ::testing::Values(kCol, kRow, kFan),
                       ::testing::Bool()));

class RandomizedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomizedSweep, RandomSpdSolvesMatchSequential) {
  // Property: for arbitrary SPD matrices under general nested dissection,
  // the distributed solve equals the sequential solve for random p, b, m.
  Rng rng(GetParam());
  const index_t n = 40 + static_cast<index_t>(rng.next_below(80));
  sparse::SymmetricCsc a0 = sparse::random_spd(n, 3, rng);
  sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, ordering::nested_dissection(a0));
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);

  const index_t p = index_t{1} << rng.next_below(5);       // 1..16
  const index_t b = 1 + static_cast<index_t>(rng.next_below(8));
  const index_t m = 1 + static_cast<index_t>(rng.next_below(4));
  const Pipelining variant = static_cast<Pipelining>(rng.next_below(3));

  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(l, ref.data(), m);

  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), p);
  Options opt;
  opt.block_size = b;
  opt.pipelining = variant;
  DistributedTrisolver solver(l, map, opt);
  simpar::Machine machine = make_machine(p);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  solver.solve(machine, rhs, x, m);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-8)
        << "seed=" << GetParam() << " p=" << p << " b=" << b << " m=" << m;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedSweep,
                         ::testing::Range<std::uint64_t>(1000, 1020));

class RandomizedStrictSweep : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RandomizedStrictSweep, StrictStorageMatchesSequential) {
  // Same property as RandomizedSweep, but reading L from rank-local
  // packed storage (the redistribution product) instead of the shared
  // factor.
  Rng rng(GetParam());
  const index_t n = 40 + static_cast<index_t>(rng.next_below(60));
  sparse::SymmetricCsc a0 = sparse::random_spd(n, 3, rng);
  sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, ordering::nested_dissection(a0));
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);

  const index_t p = index_t{1} << rng.next_below(4);  // 1..8
  const index_t m = 1 + static_cast<index_t>(rng.next_below(3));
  Options opt;
  opt.block_size = 1 + static_cast<index_t>(rng.next_below(8));

  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(l, ref.data(), m);

  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(l.partition(), p);
  const auto df = partrisolve::DistributedFactor::pack_from(
      l, map, opt.block_size);
  DistributedTrisolver solver(l, &df, map, opt);
  simpar::Machine machine = make_machine(p);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  solver.solve(machine, rhs, x, m);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-8) << "seed=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomizedStrictSweep,
                         ::testing::Range<std::uint64_t>(2000, 2010));

TEST(ParTrisolve, FragmentStackHoldsEachFragmentOnce) {
  // A rank's stack holds, each at rows of its own, the rank's fragment of
  // every shared supernode it computes and the tail (below rows) of each
  // of its subtree roots; the single-rank supernodes below a root work in
  // place and take no rows.  A shared trapezoid that fits in one block is
  // computed by its group's first rank alone, which holds all of it.  At
  // p = 1 (no shared supernode, every tail empty) the stack is empty.
  Problem prob = make_grid_problem(31);
  const auto& part = prob.l.partition();
  for (const index_t p : {index_t{1}, index_t{4}, index_t{16}}) {
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, p);
    for (const index_t b : {index_t{1}, index_t{3}, index_t{8}}) {
      Options opt;
      opt.block_size = b;
      const DistributedTrisolver solver(prob.l, map, opt);
      for (index_t w = 0; w < p; ++w) {
        index_t total = 0;
        for (index_t s = 0; s < part.num_supernodes(); ++s) {
          const exec::Group& g = map.group[static_cast<std::size_t>(s)];
          if (!g.contains(w)) continue;
          const index_t parent =
              part.stree.parent[static_cast<std::size_t>(s)];
          if (g.count > 1 && part.height(s) <= b) {
            if (w == g.base) total += part.height(s);
          } else if (g.count > 1) {
            const partrisolve::Layout lay{g.count, b, part.height(s),
                                          part.width(s)};
            total += lay.local_count(w - g.base);
          } else if (parent == -1 || map.is_parallel(parent)) {
            total += part.height(s) - part.width(s);
          }
        }
        EXPECT_EQ(solver.fragment_stack_rows(w), total)
            << "p=" << p << " b=" << b << " rank " << w;
        if (p == 1) EXPECT_EQ(total, 0);
      }
    }
  }
  const mapping::SubcubeMapping map2 = mapping::subtree_to_subcube(part, 2);
  const DistributedTrisolver solver2(prob.l, map2, {});
  EXPECT_THROW(solver2.fragment_stack_rows(2), Error);
  EXPECT_THROW(solver2.fragment_stack_rows(-1), Error);
}

/// Problems for the one-phase tests: a nested-dissection grid, and a path
/// in natural order, whose supernodes each fit in one block at b >= 2, so
/// that the first rank computes them all and the others visit none.
std::vector<Problem> phase_problems() {
  std::vector<Problem> probs;
  probs.push_back(make_grid_problem(31));
  sparse::SymmetricCsc path = sparse::grid2d(300, 1);
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(path);
  probs.push_back(Problem{std::move(path), std::move(l)});
  return probs;
}

/// Runs one phase alone, forward() or backward(), on `in` into an output
/// that starts as NaN, at p = 4 and 16, b = 1, 3 and 8 and every
/// pipelining, and compares the output with `ref`, the sequential sweep of
/// `in`.  Each rank fills its fragments from `in` as the phase starts and
/// reads no row of the output before it writes it, so no NaN survives.
void expect_phase_matches(const Problem& prob, bool forward,
                          const std::vector<real_t>& in,
                          const std::vector<real_t>& ref, index_t m) {
  const auto& part = prob.l.partition();
  for (const index_t p : {index_t{4}, index_t{16}}) {
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, p);
    for (const index_t b : {index_t{1}, index_t{3}, index_t{8}}) {
      for (const Pipelining variant : {Pipelining::column_priority,
                                       Pipelining::row_priority,
                                       Pipelining::fan_out}) {
        Options opt;
        opt.block_size = b;
        opt.pipelining = variant;
        const DistributedTrisolver solver(prob.l, map, opt);
        simpar::Machine machine = make_machine(p);
        std::vector<real_t> out(in.size(),
                                std::numeric_limits<real_t>::quiet_NaN());
        if (forward) {
          solver.forward(machine, in, out, m);
        } else {
          solver.backward(machine, in, out, m);
        }
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_NEAR(out[i], ref[i], 1e-9)
              << "n=" << prob.a.n() << " p=" << p << " b=" << b
              << " pipelining " << static_cast<int>(variant) << " entry "
              << i;
        }
      }
    }
  }
}

TEST(ParTrisolve, ForwardPhaseMatchesSequentialForwardSweep) {
  // forward() alone yields Y with L Y = B.
  constexpr index_t m = 3;
  for (const Problem& prob : phase_problems()) {
    Rng rng(17);
    const std::vector<real_t> rhs = sparse::random_rhs(prob.a.n(), m, rng);
    std::vector<real_t> y = rhs;
    trisolve::forward_solve(prob.l, y.data(), m);
    expect_phase_matches(prob, /*forward=*/true, rhs, y, m);
  }
}

TEST(ParTrisolve, BackwardPhaseMatchesSequentialBackwardSweep) {
  // backward() alone yields X with L^T X = Y, from a Y that the
  // sequential forward sweep computed.
  constexpr index_t m = 3;
  for (const Problem& prob : phase_problems()) {
    Rng rng(19);
    std::vector<real_t> y = sparse::random_rhs(prob.a.n(), m, rng);
    trisolve::forward_solve(prob.l, y.data(), m);
    std::vector<real_t> x = y;
    trisolve::backward_solve(prob.l, x.data(), m);
    expect_phase_matches(prob, /*forward=*/false, y, x, m);
  }
}

TEST(ParTrisolve, Grid3dMatchesSequential) {
  Problem prob = make_grid_problem(7, /*three_d=*/true);
  const index_t n = prob.a.n();
  const index_t m = 2;
  Rng rng(11);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(prob.l, ref.data(), m);

  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), 8);
  DistributedTrisolver solver(prob.l, map, Options{});
  simpar::Machine machine = make_machine(8);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  solver.solve(machine, rhs, x, m);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], ref[i], 1e-9);
  }
}

TEST(ParTrisolve, SpeedupIncreasesWithProcessors) {
  // BCSSTK15-scale 2-D problem: big enough that communication does not
  // dominate at p = 16 under the T3D cost model.
  Problem prob = make_grid_problem(63);
  const index_t n = prob.a.n();
  const index_t m = 1;
  Rng rng(3);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);

  double t1 = 0.0;
  double t16 = 0.0;
  for (index_t p : {1, 16}) {
    const mapping::SubcubeMapping map =
        mapping::subtree_to_subcube(prob.l.partition(), p);
    DistributedTrisolver solver(prob.l, map, Options{});
    simpar::Machine machine = make_machine(p);
    std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
    auto [fw, bw] = solver.solve(machine, rhs, x, m);
    const double t = fw.time() + bw.time();
    if (p == 1) t1 = t;
    if (p == 16) t16 = t;
  }
  EXPECT_GT(t1 / t16, 2.0) << "t1=" << t1 << " t16=" << t16;
}

TEST(ParTrisolve, BackwardPipelineIsNotSerialized) {
  // Regression test: the backward partial-sum chains must overlap in a
  // wavefront (paper Fig. 4).  If the chain for column K only starts after
  // column K+1 fully completes, the backward phase costs ~q*t/b hops
  // instead of ~q + t/b and is an order of magnitude slower than forward
  // at large q.  Guard: backward within a small factor of forward.
  Problem prob = make_grid_problem(9, /*three_d=*/true);
  const index_t p = 16;
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), p);
  DistributedTrisolver solver(prob.l, map, Options{});
  const index_t n = prob.a.n();
  Rng rng(77);
  std::vector<real_t> rhs = sparse::random_rhs(n, 1, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
  simpar::Machine machine = make_machine(p);
  auto [fw, bw] = solver.solve(machine, rhs, x, 1);
  EXPECT_LT(bw.time(), 3.0 * fw.time())
      << "fw=" << fw.time() << " bw=" << bw.time();
}

TEST(ParTrisolve, MultipleRhsRaisesFlopRate) {
  Problem prob = make_grid_problem(21);
  const index_t n = prob.a.n();
  Rng rng(5);

  auto mflops_for = [&](index_t m) {
    std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
    const mapping::SubcubeMapping map =
        mapping::subtree_to_subcube(prob.l.partition(), 8);
    DistributedTrisolver solver(prob.l, map, Options{});
    simpar::Machine machine = make_machine(8);
    std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
    auto [fw, bw] = solver.solve(machine, rhs, x, m);
    const double flops = static_cast<double>(prob.l.solve_flops(m));
    return flops / (fw.time() + bw.time()) / 1e6;
  };
  const double r1 = mflops_for(1);
  const double r10 = mflops_for(10);
  EXPECT_GT(r10, 1.5 * r1);
}

TEST(DenseParallelForward, MatchesSequential) {
  const index_t n = 96;
  const index_t m = 2;
  Rng rng(13);
  dense::Matrix a(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      a(i, j) = i == j ? static_cast<real_t>(n) : rng.uniform(-1.0, 1.0);
    }
  }
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);

  // Sequential reference via the dense kernels.
  dense::Matrix bmat(n, m);
  for (index_t c = 0; c < m; ++c) {
    for (index_t i = 0; i < n; ++i) bmat(i, c) = rhs[c * n + i];
  }
  dense::Matrix ref = dense::solve_lower(a, bmat);

  for (index_t p : {1, 4, 8}) {
    std::vector<real_t> x = rhs;
    simpar::Machine machine = make_machine(p);
    partrisolve::dense_parallel_forward(machine, a, x, m, 4);
    for (index_t c = 0; c < m; ++c) {
      for (index_t i = 0; i < n; ++i) {
        EXPECT_NEAR(x[c * n + i], ref(i, c), 1e-9);
      }
    }
  }
}

TEST(DenseParallelForward, ScalesAtPaperSize) {
  // A triangular system the size of the paper's top-level separators:
  // comfortably large enough that pipelining wins under T3D costs.
  const index_t n = 1024;
  const index_t m = 4;
  Rng rng(13);
  dense::Matrix a(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) {
      a(i, j) = i == j ? static_cast<real_t>(n) : rng.uniform(-1.0, 1.0);
    }
  }
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  double t1 = 0.0, t8 = 0.0;
  for (index_t p : {1, 8}) {
    std::vector<real_t> x = rhs;
    simpar::Machine machine = make_machine(p);
    auto stats = partrisolve::dense_parallel_forward(machine, a, x, m, 16);
    (p == 1 ? t1 : t8) = stats.parallel_time();
  }
  EXPECT_GT(t1 / t8, 2.0) << "t1=" << t1 << " t8=" << t8;
}

}  // namespace
}  // namespace sparts
