// Block-cyclic maps and subtree-to-subcube mapping.
#include <gtest/gtest.h>

#include <numeric>

#include "mapping/block_cyclic.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/layout.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"

namespace sparts {
namespace {

TEST(BlockCyclic1d, OwnershipAndLocality) {
  // The solvers' 1-D row-wise map is partrisolve::Layout.
  const partrisolve::Layout map{/*q=*/3, /*b=*/4, /*ns=*/26, /*t=*/0};
  EXPECT_EQ(map.owner_of(0), 0);
  EXPECT_EQ(map.owner_of(3), 0);
  EXPECT_EQ(map.owner_of(4), 1);
  EXPECT_EQ(map.owner_of(11), 2);
  EXPECT_EQ(map.owner_of(12), 0);  // wraps around
  // Every index is owned exactly once and local indices are consistent.
  index_t total = 0;
  for (index_t r = 0; r < map.q; ++r) total += map.local_count(r);
  EXPECT_EQ(total, map.ns);
  for (index_t i = 0; i < map.ns; ++i) {
    const index_t r = map.owner_of(i);
    EXPECT_LT(map.local_of(i), map.local_count(r));
  }
}

TEST(BlockCyclic2d, NearSquareGrids) {
  auto g1 = mapping::BlockCyclic2d::near_square(1, 8);
  EXPECT_EQ(g1.qr * g1.qc, 1);
  auto g16 = mapping::BlockCyclic2d::near_square(16, 8);
  EXPECT_EQ(g16.qr, 4);
  EXPECT_EQ(g16.qc, 4);
  auto g32 = mapping::BlockCyclic2d::near_square(32, 8);
  EXPECT_EQ(g32.qr * g32.qc, 32);
  EXPECT_EQ(g32.qr, 8);
  EXPECT_EQ(g32.qc, 4);
}

TEST(BlockCyclic2d, OwnerCoversGrid) {
  auto g = mapping::BlockCyclic2d::near_square(8, 2);
  std::vector<int> hit(8, 0);
  for (index_t i = 0; i < 16; ++i) {
    for (index_t j = 0; j < 16; ++j) {
      const index_t o = g.owner(i, j);
      ASSERT_GE(o, 0);
      ASSERT_LT(o, 8);
      hit[static_cast<std::size_t>(o)] = 1;
    }
  }
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), 8);
}

class SubcubeTest : public ::testing::TestWithParam<index_t> {};

TEST_P(SubcubeTest, MappingIsConsistentOnGrid) {
  const index_t p = GetParam();
  const index_t k = 17;
  sparse::SymmetricCsc a0 = sparse::grid2d(k, k);
  const sparse::Permutation perm = ordering::nested_dissection_grid2d(k, k);
  const sparse::SymmetricCsc a = sparse::permute_symmetric(a0, perm);
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const symbolic::SupernodePartition part =
      symbolic::fundamental_supernodes(sym);

  const mapping::SubcubeMapping m = mapping::subtree_to_subcube(part, p);
  m.check_consistent(part);

  // The root supernode of a connected problem is shared by all p.
  index_t root = -1;
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    if (part.stree.parent[static_cast<std::size_t>(s)] == -1) root = s;
  }
  ASSERT_NE(root, -1);
  EXPECT_EQ(m.group[static_cast<std::size_t>(root)].count, p);
  EXPECT_EQ(m.level(root), 0);

  // Every processor owns at least one sequential supernode (p << columns).
  std::vector<bool> has_work(static_cast<std::size_t>(p), false);
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    const auto& g = m.group[static_cast<std::size_t>(s)];
    if (g.count == 1) has_work[static_cast<std::size_t>(g.base)] = true;
  }
  for (index_t r = 0; r < p; ++r) {
    EXPECT_TRUE(has_work[static_cast<std::size_t>(r)]) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Powers, SubcubeTest,
                         ::testing::Values<index_t>(1, 2, 4, 8, 16));

TEST(Subcube, WorkBalanceWithinFactorOfTwo) {
  const index_t k = 31;
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(k, k), ordering::nested_dissection_grid2d(k, k));
  const symbolic::SymbolicFactor sym = symbolic::symbolic_cholesky(a);
  const symbolic::SupernodePartition part =
      symbolic::fundamental_supernodes(sym);
  const index_t p = 8;
  const auto weights = mapping::solve_work_weights(part);
  const mapping::SubcubeMapping m =
      mapping::subtree_to_subcube(part, p, weights);

  // Sequential work per processor should be reasonably balanced for a
  // regular grid with geometric nested dissection.
  std::vector<double> work(static_cast<std::size_t>(p), 0.0);
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    const auto& g = m.group[static_cast<std::size_t>(s)];
    if (g.count == 1) {
      work[static_cast<std::size_t>(g.base)] +=
          weights[static_cast<std::size_t>(s)];
    }
  }
  const double mx = *std::max_element(work.begin(), work.end());
  const double mn = *std::min_element(work.begin(), work.end());
  EXPECT_GT(mn, 0.0);
  EXPECT_LT(mx / mn, 2.5);
}

}  // namespace
}  // namespace sparts
