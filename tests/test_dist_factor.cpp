// Rank-local storage of the shared supernodes: packing, redistribution-
// produced storage, and the solve that reads it.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "mapping/subtree_to_subcube.hpp"
#include "numeric/multifrontal.hpp"
#include "ordering/nested_dissection.hpp"
#include "parfact/parfact.hpp"
#include "partrisolve/dist_factor.hpp"
#include "partrisolve/layout.hpp"
#include "partrisolve/partrisolve.hpp"
#include "redist/redist.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "trisolve/trisolve.hpp"
#include "exec/collectives.hpp"
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

struct Prob {
  sparse::SymmetricCsc a;
  numeric::SupernodalFactor l;
};

Prob make_prob(index_t k) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(k, k), ordering::nested_dissection_grid2d(k, k));
  numeric::SupernodalFactor l = numeric::multifrontal_cholesky(a);
  return {std::move(a), std::move(l)};
}

TEST(DistFactor, PackCoversEveryEntry) {
  Prob prob = make_prob(11);
  const index_t p = 4, b = 4;
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), p);
  const auto df =
      partrisolve::DistributedFactor::pack_from(prob.l, map, b);

  const auto& part = prob.l.partition();
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    if (!map.is_parallel(s)) continue;
    const exec::Group& g = map.group[static_cast<std::size_t>(s)];
    const partrisolve::Layout lay{g.count, b, part.height(s), part.width(s)};
    const auto block = prob.l.block(s);
    for (index_t i = 0; i < lay.ns; ++i) {
      const index_t r = lay.owner_of(i);
      const index_t w = g.world(r);
      ASSERT_TRUE(df.has_block(w, s));
      const auto& local = df.local_block(w, s);
      const index_t nloc = df.local_rows(w, s);
      for (index_t k2 = 0; k2 < part.width(s); ++k2) {
        EXPECT_DOUBLE_EQ(
            local[static_cast<std::size_t>(k2 * nloc + lay.local_of(i))],
            block[static_cast<std::size_t>(k2 * lay.ns + i)]);
      }
    }
  }
}

TEST(DistFactor, BlocksExistExactlyForGroupMembers) {
  // Storage is indexed by (shared supernode, group rank): a rank outside
  // the group, or a supernode out of range, has no block and a lookup
  // names the pair instead of returning a neighbour's panel.
  Prob prob = make_prob(11);
  const index_t p = 8, b = 3;
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), p);
  const partrisolve::DistributedFactor df(prob.l.partition(), map, b);
  const auto& part = prob.l.partition();
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    if (!map.is_parallel(s)) continue;
    const exec::Group& g = map.group[static_cast<std::size_t>(s)];
    const partrisolve::Layout lay{g.count, b, part.height(s), part.width(s)};
    for (index_t w = 0; w < p; ++w) {
      ASSERT_EQ(df.has_block(w, s), g.contains(w)) << "s=" << s << " w=" << w;
      if (g.contains(w)) {
        const index_t nloc = lay.local_count(w - g.base);
        EXPECT_EQ(df.local_rows(w, s), nloc);
        EXPECT_EQ(static_cast<index_t>(df.local_block(w, s).size()),
                  nloc * part.width(s));
      } else {
        EXPECT_THROW(df.local_block(w, s), Error);
        EXPECT_THROW(df.local_rows(w, s), Error);
      }
    }
  }
  EXPECT_FALSE(df.has_block(0, -1));
  EXPECT_FALSE(df.has_block(0, part.num_supernodes()));
  EXPECT_FALSE(partrisolve::DistributedFactor().has_block(0, 0));
}

/// Expect `df` to hold a block exactly for the group ranks of every
/// shared supernode, none for a single-rank one, and Σ ns·t entries over
/// the shared supernodes.
void expect_only_shared_blocks(const partrisolve::DistributedFactor& df,
                               const symbolic::SupernodePartition& part,
                               const mapping::SubcubeMapping& map) {
  nnz_t stored = 0, shared_entries = 0;
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    const exec::Group& g = map.group[static_cast<std::size_t>(s)];
    const bool shared = map.is_parallel(s);
    for (index_t w = 0; w < map.p; ++w) {
      ASSERT_EQ(df.has_block(w, s), shared && g.contains(w))
          << "s=" << s << " w=" << w;
      if (df.has_block(w, s)) {
        stored += static_cast<nnz_t>(df.local_block(w, s).size());
      }
    }
    if (shared) {
      shared_entries += static_cast<nnz_t>(part.height(s)) *
                        static_cast<nnz_t>(part.width(s));
    }
  }
  EXPECT_GT(shared_entries, 0);
  EXPECT_EQ(stored, shared_entries);
}

TEST(DistFactor, HoldsOnlySharedSupernodes) {
  // A single-rank supernode's panel is read from the SupernodalFactor, so
  // neither the redistribution nor direct packing stores it again.
  Prob prob = make_prob(31);
  const auto& part = prob.l.partition();
  for (const index_t p : {index_t{4}, index_t{8}}) {
    SCOPED_TRACE("p=" + std::to_string(p));
    const mapping::SubcubeMapping map = mapping::subtree_to_subcube(part, p);
    index_t single_rank = 0;
    for (index_t s = 0; s < part.num_supernodes(); ++s) {
      single_rank += map.is_parallel(s) ? 0 : 1;
    }
    ASSERT_GT(single_rank, part.num_supernodes() / 2);
    const redist::Options ropt;
    partrisolve::DistributedFactor via_network;
    simpar::Machine machine = make_machine(p);
    redist::redistribute_factor(machine, prob.l, map, ropt, &via_network);
    expect_only_shared_blocks(via_network, part, map);
    expect_only_shared_blocks(
        partrisolve::DistributedFactor::pack_from(prob.l, map, ropt.block_1d),
        part, map);
  }
}

class StrictSolveTest : public ::testing::TestWithParam<index_t> {};

TEST_P(StrictSolveTest, MatchesSharedFactorSolve) {
  const index_t p = GetParam();
  Prob prob = make_prob(13);
  const index_t n = prob.a.n(), m = 2;
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), p);
  partrisolve::Options opt;

  Rng rng(51);
  std::vector<real_t> rhs = sparse::random_rhs(n, m, rng);

  // The same bytes reach the same kernel calls whether the solver is
  // handed the packed shared supernodes or packs them itself.
  const auto df = partrisolve::DistributedFactor::pack_from(
      prob.l, map, opt.block_size);
  const partrisolve::DistributedTrisolver strict(prob.l, &df, map, opt);
  const partrisolve::DistributedTrisolver self_packing(prob.l, map, opt);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  std::vector<real_t> x_self(x.size(), 0.0);
  simpar::Machine machine = make_machine(p);
  strict.solve(machine, rhs, x, m);
  simpar::Machine machine_self = make_machine(p);
  self_packing.solve(machine_self, rhs, x_self, m);
  EXPECT_EQ(x, x_self);
}

INSTANTIATE_TEST_SUITE_P(Powers, StrictSolveTest,
                         ::testing::Values<index_t>(1, 2, 4, 8, 16));

TEST(DistFactor, RedistributionProducesPackedStorage) {
  Prob prob = make_prob(15);
  const index_t p = 8;
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(prob.l.partition(), p);
  redist::Options ropt;
  partrisolve::DistributedFactor via_network;
  {
    simpar::Machine machine = make_machine(p);
    redist::redistribute_factor(machine, prob.l, map, ropt, &via_network);
  }
  const auto direct =
      partrisolve::DistributedFactor::pack_from(prob.l, map, ropt.block_1d);

  const auto& part = prob.l.partition();
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    if (!map.is_parallel(s)) continue;
    const exec::Group& g = map.group[static_cast<std::size_t>(s)];
    for (index_t r = 0; r < g.count; ++r) {
      const index_t w = g.world(r);
      const auto& a = via_network.local_block(w, s);
      const auto& b = direct.local_block(w, s);
      ASSERT_EQ(a.size(), b.size());
      for (std::size_t z = 0; z < a.size(); ++z) {
        EXPECT_DOUBLE_EQ(a[z], b[z]) << "supernode " << s << " rank " << w;
      }
    }
  }
}

TEST(DistFactor, FullPipelineFactorRedistSolveStrict) {
  // The complete paper pipeline: parallel factorization (2-D) ->
  // redistribution (network) -> 1-D solve of the shared supernodes from
  // rank-local storage.
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid3d(6, 6, 6), ordering::nested_dissection_grid3d(6, 6, 6));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const symbolic::SupernodePartition part =
      symbolic::fundamental_supernodes(sym);
  const index_t p = 8;

  const mapping::SubcubeMapping fmap = mapping::subtree_to_subcube(
      part, p, mapping::factor_work_weights(part));
  numeric::SupernodalFactor factor;
  {
    simpar::Machine machine = make_machine(p);
    parfact::parallel_multifrontal(machine, a, part, fmap, factor);
  }

  const mapping::SubcubeMapping smap = mapping::subtree_to_subcube(part, p);
  redist::Options ropt;
  partrisolve::DistributedFactor df;
  {
    simpar::Machine machine = make_machine(p);
    redist::redistribute_factor(machine, factor, smap, ropt, &df);
  }

  partrisolve::Options opt;
  opt.block_size = ropt.block_1d;
  partrisolve::DistributedTrisolver solver(factor, &df, smap, opt);
  const index_t n = a.n(), m = 3;
  Rng rng(53);
  std::vector<real_t> b = sparse::random_rhs(n, m, rng);
  std::vector<real_t> x(static_cast<std::size_t>(n * m), 0.0);
  simpar::Machine machine = make_machine(p);
  solver.solve(machine, b, x, m);
  EXPECT_LT(trisolve::relative_residual(a, x, b, m), 1e-9);
}

}  // namespace
}  // namespace sparts
