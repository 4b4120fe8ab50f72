// Parallel multifrontal factorization must reproduce the sequential
// factor; redistribution must route every entry correctly and cost a
// fraction of the solve (the paper's §4 claim).  A shared supernode that
// fits in one block sends no message in any phase, and only its group's
// first rank visits it.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exec/task_backend.hpp"
#include "exec/thread_backend.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "obs/trace.hpp"
#include "ordering/nested_dissection.hpp"
#include "parfact/parfact.hpp"
#include "partrisolve/partrisolve.hpp"
#include "partrisolve/dist_factor.hpp"
#include "redist/redist.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"
#include "trisolve/trisolve.hpp"
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

struct ProblemSetup {
  sparse::SymmetricCsc a;
  symbolic::SupernodePartition part;
  numeric::SupernodalFactor seq;
};

ProblemSetup make_problem(index_t k, bool three_d = false) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      three_d ? sparse::grid3d(k, k, k) : sparse::grid2d(k, k),
      three_d ? ordering::nested_dissection_grid3d(k, k, k)
              : ordering::nested_dissection_grid2d(k, k));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  symbolic::SupernodePartition part = symbolic::fundamental_supernodes(sym);
  numeric::SupernodalFactor seq = numeric::multifrontal_cholesky(a, part);
  return ProblemSetup{std::move(a), std::move(part), std::move(seq)};
}

class ParfactTest
    : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(ParfactTest, MatchesSequentialFactor) {
  const auto [p, b2d] = GetParam();
  ProblemSetup su = make_problem(13);
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(
      su.part, p, mapping::factor_work_weights(su.part));

  simpar::Machine machine = make_machine(p);
  numeric::SupernodalFactor par;
  parfact::Options opt;
  opt.block_2d = b2d;
  auto report =
      parfact::parallel_multifrontal(machine, su.a, su.part, map, par, opt);
  EXPECT_GT(report.time(), 0.0);

  for (index_t s = 0; s < su.part.num_supernodes(); ++s) {
    auto ref = su.seq.block(s);
    auto got = par.block(s);
    ASSERT_EQ(ref.size(), got.size());
    const index_t ns = su.part.height(s);
    const index_t t = su.part.width(s);
    for (index_t k = 0; k < t; ++k) {
      for (index_t i = k; i < ns; ++i) {  // above-diagonal entries unused
        EXPECT_NEAR(ref[static_cast<std::size_t>(k * ns + i)],
                    got[static_cast<std::size_t>(k * ns + i)], 1e-9)
            << "supernode " << s << " entry (" << i << ", " << k << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ParfactTest,
                         ::testing::Values(std::pair<index_t, index_t>{1, 8},
                                           std::pair<index_t, index_t>{2, 4},
                                           std::pair<index_t, index_t>{4, 4},
                                           std::pair<index_t, index_t>{8, 2},
                                           std::pair<index_t, index_t>{8, 3},
                                           std::pair<index_t, index_t>{16,
                                                                       4}));

TEST(Parfact, AmalgamatedPartitionMatchesSequential) {
  // The distributed factorization must handle relaxed supernodes (whose
  // trapezoids carry explicit zeros) identically to the sequential code.
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(15, 15), ordering::nested_dissection_grid2d(15, 15));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  symbolic::SupernodePartition part = symbolic::fundamental_supernodes(sym);
  part = symbolic::amalgamate(sym, part, 16, 8);
  const numeric::SupernodalFactor seq =
      numeric::multifrontal_cholesky(a, part);

  const index_t p = 8;
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(
      part, p, mapping::factor_work_weights(part));
  simpar::Machine machine = make_machine(p);
  numeric::SupernodalFactor par;
  parfact::parallel_multifrontal(machine, a, part, map, par);
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    auto rb = seq.block(s);
    auto gb = par.block(s);
    const index_t ns = part.height(s);
    for (index_t k = 0; k < part.width(s); ++k) {
      for (index_t i = k; i < ns; ++i) {
        EXPECT_NEAR(rb[static_cast<std::size_t>(k * ns + i)],
                    gb[static_cast<std::size_t>(k * ns + i)], 1e-9);
      }
    }
  }
}

TEST(Redist, BlockSizeCombinations) {
  // Every (2-D block, 1-D block) combination must route correctly,
  // including non-divisible and mismatched sizes.
  ProblemSetup su = make_problem(11);
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(su.part, 8);
  for (index_t b2 : {3, 8, 16}) {
    for (index_t b1 : {1, 5, 8}) {
      redist::Options opt;
      opt.block_2d = b2;
      opt.block_1d = b1;
      partrisolve::DistributedFactor df;
      simpar::Machine machine = make_machine(8);
      // Throws on any misrouted entry.
      redist::redistribute_factor(machine, su.seq, map, opt, &df);
      const auto direct =
          partrisolve::DistributedFactor::pack_from(su.seq, map, b1);
      for (index_t s = 0; s < su.part.num_supernodes(); ++s) {
        if (!map.is_parallel(s)) continue;
        const auto& g = map.group[static_cast<std::size_t>(s)];
        for (index_t r = 0; r < g.count; ++r) {
          EXPECT_EQ(df.local_block(g.world(r), s),
                    direct.local_block(g.world(r), s))
              << "b2=" << b2 << " b1=" << b1 << " s=" << s;
        }
      }
    }
  }
}

TEST(Parfact, Grid3dFactorThenSolveEndToEnd) {
  ProblemSetup su = make_problem(6, /*three_d=*/true);
  const index_t p = 8;
  const mapping::SubcubeMapping fmap = mapping::subtree_to_subcube(
      su.part, p, mapping::factor_work_weights(su.part));

  simpar::Machine machine = make_machine(p);
  numeric::SupernodalFactor par;
  parfact::parallel_multifrontal(machine, su.a, su.part, fmap, par);

  // Solve with the parallel-produced factor.
  const index_t n = su.a.n();
  const index_t m = 2;
  Rng rng(21);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);
  const mapping::SubcubeMapping smap =
      mapping::subtree_to_subcube(su.part, p);
  partrisolve::DistributedTrisolver solver(par, smap, {});
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  simpar::Machine machine2 = make_machine(p);
  solver.solve(machine2, rhs, x, m);
  EXPECT_LT(trisolve::relative_residual(su.a, x, rhs, m), 1e-9);
}

TEST(Parfact, SpeedupAtPaperScale) {
  ProblemSetup su = make_problem(63);
  double t1 = 0.0, t16 = 0.0;
  for (index_t p : {1, 16}) {
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(
        su.part, p, mapping::factor_work_weights(su.part));
    simpar::Machine machine = make_machine(p);
    numeric::SupernodalFactor par;
    auto report =
        parfact::parallel_multifrontal(machine, su.a, su.part, map, par);
    (p == 1 ? t1 : t16) = report.time();
  }
  EXPECT_GT(t1 / t16, 4.0) << "t1=" << t1 << " t16=" << t16;
}

class RedistTest : public ::testing::TestWithParam<index_t> {};

TEST_P(RedistTest, RoutesEveryEntry) {
  const index_t p = GetParam();
  ProblemSetup su = make_problem(13);
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(su.part, p);
  simpar::Machine machine = make_machine(p);
  // redistribute_factor throws on any misrouted entry.
  auto report = redist::redistribute_factor(machine, su.seq, map);
  if (p > 1) {
    EXPECT_GT(report.time(), 0.0);
    EXPECT_GT(report.stats.total_messages(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Powers, RedistTest,
                         ::testing::Values<index_t>(1, 2, 4, 8, 16));

TEST(Redist, CostIsFractionOfSolve) {
  // Paper §4/§5: on the T3D the redistribution takes at most 0.9x (avg
  // ~0.5x) the single-RHS solve time.
  ProblemSetup su = make_problem(63);
  const index_t p = 16;
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(su.part, p);

  simpar::Machine machine = make_machine(p);
  auto redist_report = redist::redistribute_factor(machine, su.seq, map);

  partrisolve::DistributedTrisolver solver(su.seq, map, {});
  const index_t n = su.a.n();
  Rng rng(2);
  std::vector<real_t> rhs = sparse::random_rhs(n, 1, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n), 0.0);
  simpar::Machine machine2 = make_machine(p);
  auto [fw, bw] = solver.solve(machine2, rhs, x, 1);

  const double ratio = redist_report.time() / (fw.time() + bw.time());
  EXPECT_LT(ratio, 1.5) << "redistribution should not dwarf the solve";
  EXPECT_GT(ratio, 0.0);
}

// ---------------------------------------------------------------------
// A shared supernode that one rank holds whole sends no message.
// ---------------------------------------------------------------------

/// The factor-once pipeline on one backend, phase by phase as
/// SparseSolver runs it: parfact on the factor-work map, redistribution
/// to the solve map, then one forward and one backward sweep over the
/// rank-local 1-D factor.
struct PipelineRun {
  numeric::SupernodalFactor factor;
  std::vector<real_t> x;
  std::array<nnz_t, 4> messages{};  ///< parfact, redist, forward, backward
};

PipelineRun run_pipeline(exec::Comm& comm, const sparse::SymmetricCsc& a,
                         const symbolic::SupernodePartition& part,
                         const std::vector<real_t>& rhs, index_t m) {
  const index_t p = comm.nprocs();
  const mapping::SubcubeMapping fmap = mapping::subtree_to_subcube(
      part, p, mapping::factor_work_weights(part));
  const mapping::SubcubeMapping smap = mapping::subtree_to_subcube(part, p);
  PipelineRun run;
  run.messages[0] =
      parfact::parallel_multifrontal(comm, a, part, fmap, run.factor)
          .stats.total_messages();
  partrisolve::DistributedFactor local;
  run.messages[1] =
      redist::redistribute_factor(comm, run.factor, smap, {}, &local)
          .stats.total_messages();
  const partrisolve::DistributedTrisolver solver(run.factor, &local, smap,
                                                 {});
  std::vector<real_t> y(rhs.size(), 0.0);
  run.x.assign(rhs.size(), 0.0);
  run.messages[2] = solver.forward(comm, rhs, y, m).stats.total_messages();
  run.messages[3] =
      solver.backward(comm, y, run.x, m).stats.total_messages();
  return run;
}

/// The pipeline on the simulator, threads and tasks, in that order.
std::vector<PipelineRun> run_on_every_backend(
    index_t p, const sparse::SymmetricCsc& a,
    const symbolic::SupernodePartition& part, const std::vector<real_t>& rhs,
    index_t m) {
  std::vector<PipelineRun> runs;
  simpar::Machine machine = make_machine(p);
  runs.push_back(run_pipeline(machine, a, part, rhs, m));
  exec::ThreadBackend::Config thread_cfg;
  thread_cfg.nprocs = p;
  exec::ThreadBackend threads(thread_cfg);
  runs.push_back(run_pipeline(threads, a, part, rhs, m));
  exec::TaskBackend::Config task_cfg;
  task_cfg.nprocs = p;
  exec::TaskBackend tasks(task_cfg);
  runs.push_back(run_pipeline(tasks, a, part, rhs, m));
  return runs;
}

/// max over columns of ||A x - b||_inf / (||A||_inf ||x||_inf + ||b||_inf).
double backward_error(const sparse::SymmetricCsc& a,
                      const std::vector<real_t>& x,
                      const std::vector<real_t>& b, index_t m) {
  const auto n = static_cast<std::size_t>(a.n());
  std::vector<double> row_sums(n, 0.0);
  for (index_t j = 0; j < a.n(); ++j) {
    const auto rows = a.col_rows(j);
    const auto vals = a.col_values(j);
    for (std::size_t k = 0; k < rows.size(); ++k) {
      row_sums[static_cast<std::size_t>(rows[k])] += std::abs(vals[k]);
      if (rows[k] != j) {
        row_sums[static_cast<std::size_t>(j)] += std::abs(vals[k]);
      }
    }
  }
  const double a_norm = *std::max_element(row_sums.begin(), row_sums.end());
  std::vector<real_t> r(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = -b[i];
  a.symm(1.0, x.data(), r.data(), m);
  double worst = 0.0;
  for (std::size_t c = 0; c < static_cast<std::size_t>(m); ++c) {
    double rn = 0.0, xn = 0.0, bn = 0.0;
    for (std::size_t i = c * n; i < (c + 1) * n; ++i) {
      rn = std::max(rn, std::abs(r[i]));
      xn = std::max(xn, std::abs(x[i]));
      bn = std::max(bn, std::abs(b[i]));
    }
    worst = std::max(worst, rn / (a_norm * xn + bn));
  }
  return worst;
}

TEST(SingleBlockSupernodes, PathSendsNoMessageInAnyPhase) {
  // A path in natural order has a chain etree: every supernode is one or
  // two columns wide and two rows tall, so each fits in one block of
  // every distribution, and the mapping shares them across the machine.
  // Each group's first rank holds them whole, so no phase sends.
  const sparse::SymmetricCsc a = sparse::grid2d(300, 1);
  const symbolic::SupernodePartition part =
      symbolic::fundamental_supernodes(symbolic::symbolic_cholesky(a));
  constexpr index_t m = 3;
  Rng rng(41);
  const std::vector<real_t> rhs = sparse::random_rhs(a.n(), m, rng);
  for (const index_t p : {4, 8}) {
    const mapping::SubcubeMapping smap = mapping::subtree_to_subcube(part, p);
    index_t shared = 0;
    for (index_t s = 0; s < part.num_supernodes(); ++s) {
      shared += smap.is_parallel(s) ? 1 : 0;
    }
    ASSERT_GT(shared, part.num_supernodes() / 2) << "p=" << p;

    const std::vector<PipelineRun> runs =
        run_on_every_backend(p, a, part, rhs, m);
    const char* backend[] = {"sim", "threads", "tasks"};
    for (std::size_t k = 0; k < runs.size(); ++k) {
      EXPECT_EQ(runs[k].messages, (std::array<nnz_t, 4>{0, 0, 0, 0}))
          << backend[k] << " p=" << p;
      EXPECT_TRUE(std::ranges::equal(runs[k].factor.values(),
                                     runs[0].factor.values()))
          << backend[k] << " p=" << p;
      EXPECT_EQ(runs[k].x, runs[0].x) << backend[k] << " p=" << p;
    }
    EXPECT_LE(backward_error(a, runs[0].x, rhs, m), 1e-12) << "p=" << p;
  }
}

TEST(SingleBlockSupernodes, MultiBlockSupernodesKeepTheirMessages) {
  // Nested dissection of a 31 x 31 grid at p = 4: its shared separators
  // span several blocks, so the single-block rule must leave every
  // phase's messages alone.  The pinned counts are what the pipeline
  // sends without the rule.
  const ProblemSetup su = make_problem(31);
  constexpr index_t m = 2;
  Rng rng(43);
  const std::vector<real_t> rhs = sparse::random_rhs(su.a.n(), m, rng);
  const std::vector<PipelineRun> runs =
      run_on_every_backend(4, su.a, su.part, rhs, m);
  const char* backend[] = {"sim", "threads", "tasks"};
  for (std::size_t k = 0; k < runs.size(); ++k) {
    EXPECT_EQ(runs[k].messages, (std::array<nnz_t, 4>{41, 12, 37, 37}))
        << backend[k];
    EXPECT_EQ(runs[k].x, runs[0].x) << backend[k];
  }
  EXPECT_LE(backward_error(su.a, runs[0].x, rhs, m), 1e-12);
}

/// Begin events of the span `name` per exported track (rank r is track
/// r + 1) in a Chrome trace, which the exporter writes one event a line.
std::map<int, index_t> span_begins_per_track(const std::string& json,
                                             const std::string& name) {
  std::map<int, index_t> count;
  std::istringstream lines(json);
  std::string line;
  const std::string key = "{\"name\": \"" + name + "\"";
  const std::string tid = "\"tid\": ";
  while (std::getline(lines, line)) {
    if (line.rfind(key, 0) != 0 ||
        line.find("\"ph\": \"B\"") == std::string::npos) {
      continue;
    }
    ++count[std::stoi(line.substr(line.find(tid) + tid.size()))];
  }
  return count;
}

TEST(SingleBlockSupernodes, OnlyTheFirstRankVisitsThem) {
  // Every supernode of a path in natural order fits in one block, so at
  // p = 4 rank 0 computes all of them.  Ranks 1-3 own none of their rows
  // and never visit one: their tracks carry no supernode span in either
  // phase, and rank 0's carries one per supernode and phase.
  const sparse::SymmetricCsc a = sparse::grid2d(300, 1);
  const symbolic::SupernodePartition part =
      symbolic::fundamental_supernodes(symbolic::symbolic_cholesky(a));
  const numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a, part);
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, 4);
  const partrisolve::DistributedTrisolver solver(l, map, {});
  constexpr index_t m = 2;
  Rng rng(47);
  const std::vector<real_t> rhs = sparse::random_rhs(a.n(), m, rng);
  std::vector<real_t> x(rhs.size(), 0.0);

  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.clear();
  tracer.enable(1 << 16);
  simpar::Machine machine = make_machine(4);
  solver.solve(machine, rhs, x, m);
  tracer.disable();
  std::ostringstream out;
  tracer.write_chrome_trace(out);
  tracer.clear();

  const std::map<int, index_t> rank0_only{{1, part.num_supernodes()}};
  EXPECT_EQ(span_begins_per_track(out.str(), "fw.supernode"), rank0_only);
  EXPECT_EQ(span_begins_per_track(out.str(), "bw.supernode"), rank0_only);
  EXPECT_LE(backward_error(a, x, rhs, m), 1e-12);
}

TEST(SingleBlockSupernodes, MultiBlockChildOfAOneBlockParent) {
  // Under nested dissection this random matrix has, at p = 8 and b = 1, a
  // shared supernode that spans several blocks below a parent that fits
  // in one.  The parent's first rank alone computes the parent, so the
  // child's other ranks lie outside its compute group and hand their
  // below rows to it by message.  x matches the sequential solve and is
  // bit-identical on every backend, for every pipelining.
  Rng rng(133);
  const sparse::SymmetricCsc a0 = sparse::random_spd(300, 3, rng);
  const sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, ordering::nested_dissection(a0));
  const symbolic::SupernodePartition part =
      symbolic::fundamental_supernodes(symbolic::symbolic_cholesky(a));
  const numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a, part);
  constexpr index_t p = 8;
  constexpr index_t b = 1;
  const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, p);
  bool found = false;
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    found = found || (parent != -1 && map.is_parallel(s) &&
                      part.height(s) > b && part.height(parent) <= b);
  }
  ASSERT_TRUE(found);

  constexpr index_t m = 2;
  const std::vector<real_t> rhs = sparse::random_rhs(a.n(), m, rng);
  std::vector<real_t> ref = rhs;
  trisolve::full_solve(l, ref.data(), m);
  for (const auto variant :
       {partrisolve::Pipelining::column_priority,
        partrisolve::Pipelining::row_priority,
        partrisolve::Pipelining::fan_out}) {
    partrisolve::Options opt;
    opt.block_size = b;
    opt.pipelining = variant;
    const partrisolve::DistributedTrisolver solver(l, map, opt);
    simpar::Machine machine = make_machine(p);
    exec::ThreadBackend::Config thread_cfg;
    thread_cfg.nprocs = p;
    exec::ThreadBackend threads(thread_cfg);
    exec::TaskBackend::Config task_cfg;
    task_cfg.nprocs = p;
    exec::TaskBackend tasks(task_cfg);
    std::vector<std::vector<real_t>> xs;
    for (exec::Comm* comm : {static_cast<exec::Comm*>(&machine),
                             static_cast<exec::Comm*>(&threads),
                             static_cast<exec::Comm*>(&tasks)}) {
      xs.emplace_back(rhs.size(), 0.0);
      solver.solve(*comm, rhs, xs.back(), m);
    }
    const int v = static_cast<int>(variant);
    EXPECT_EQ(xs[1], xs[0]) << "threads, pipelining " << v;
    EXPECT_EQ(xs[2], xs[0]) << "tasks, pipelining " << v;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_NEAR(xs[0][i], ref[i], 1e-9) << "pipelining " << v;
    }
  }
}

}  // namespace
}  // namespace sparts
