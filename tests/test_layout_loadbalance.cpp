// Distributed-layout arithmetic, RHS packet round-trips and the
// load-balance diagnostics.
#include <gtest/gtest.h>

#include <cstddef>
#include <numeric>
#include <utility>
#include <vector>

#include "mapping/load_balance.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "ordering/nested_dissection.hpp"
#include "partrisolve/layout.hpp"
#include "partrisolve/packets.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"

namespace sparts {
namespace {

TEST(Layout, CoversEveryPositionExactlyOnce) {
  for (index_t q : {1, 2, 3, 4}) {
    for (index_t b : {1, 3, 8}) {
      for (index_t ns : {1, 7, 24, 25}) {
        partrisolve::Layout lay{q, b, ns, std::min<index_t>(ns, 10)};
        std::vector<index_t> seen(static_cast<std::size_t>(ns), 0);
        index_t total = 0;
        for (index_t r = 0; r < q; ++r) {
          total += lay.local_count(r);
          for (index_t i = 0; i < ns; ++i) {
            if (lay.owner_of(i) == r) {
              ++seen[static_cast<std::size_t>(i)];
              EXPECT_LT(lay.local_of(i), lay.local_count(r));
            }
          }
        }
        EXPECT_EQ(total, ns) << "q=" << q << " b=" << b << " ns=" << ns;
        for (index_t i = 0; i < ns; ++i) {
          EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1);
        }
      }
    }
  }
}

TEST(Layout, LocalCountMatchesOwnerCount) {
  // The closed form against a position-by-position count, including the
  // ragged last block and ranks that own no block.
  for (index_t q = 1; q <= 8; ++q) {
    for (index_t b = 1; b <= 9; ++b) {
      for (index_t ns = 0; ns <= 80; ++ns) {
        const partrisolve::Layout lay{q, b, ns, std::min<index_t>(ns, 5)};
        for (index_t r = 0; r < q; ++r) {
          index_t owned = 0;
          for (index_t i = 0; i < ns; ++i) owned += lay.owner_of(i) == r;
          ASSERT_EQ(lay.local_count(r), owned)
              << "q=" << q << " b=" << b << " ns=" << ns << " r=" << r;
        }
      }
    }
  }
}

TEST(Layout, LocalOffsetsAreAscendingAndPacked) {
  partrisolve::Layout lay{3, 4, 29, 12};
  for (index_t r = 0; r < 3; ++r) {
    index_t expected = 0;
    for (index_t i = 0; i < 29; ++i) {
      if (lay.owner_of(i) != r) continue;
      EXPECT_EQ(lay.local_of(i), expected) << "rank " << r << " pos " << i;
      ++expected;
    }
  }
}

TEST(Layout, PivotBlockBoundaries) {
  partrisolve::Layout lay{2, 8, 40, 20};
  EXPECT_EQ(lay.num_blocks(), 5);
  EXPECT_EQ(lay.num_pivot_blocks(), 3);  // ceil(20/8)
  EXPECT_EQ(lay.col_begin(2), 16);
  EXPECT_EQ(lay.col_end(2), 20);  // clipped at t
  EXPECT_EQ(lay.block_end(4), 40);
}

TEST(Packets, RoundTrip) {
  partrisolve::RhsPacket p;
  p.positions = {3, 17, 42};
  const index_t m = 2;
  p.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  auto bytes = partrisolve::pack_rhs(p, m);
  auto q = partrisolve::unpack_rhs(bytes, m);
  EXPECT_EQ(q.positions, p.positions);
  EXPECT_EQ(q.values, p.values);
}

TEST(Packets, EmptyPacket) {
  partrisolve::RhsPacket p;
  auto bytes = partrisolve::pack_rhs(p, 5);
  auto q = partrisolve::unpack_rhs(bytes, 5);
  EXPECT_TRUE(q.empty());
}

TEST(Packets, RejectsCorruptStream) {
  partrisolve::RhsPacket p;
  p.positions = {1};
  p.values = {9.0};
  auto bytes = partrisolve::pack_rhs(p, 1);
  bytes.pop_back();
  EXPECT_THROW(partrisolve::unpack_rhs(bytes, 1), Error);
}

TEST(Packets, UnpackIntoReplacesEarlierContents) {
  // The solver unpacks every received packet into one reused buffer; a
  // shorter packet must not leave stale entries behind.
  partrisolve::RhsPacket big;
  big.positions = {1, 2, 3};
  big.values = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  partrisolve::RhsPacket small;
  small.positions = {7};
  small.values = {8.0, 9.0};
  partrisolve::RhsPacket reused;
  partrisolve::unpack_rhs(partrisolve::pack_rhs(big, 2), 2, reused);
  EXPECT_EQ(reused.values, big.values);
  partrisolve::unpack_rhs(partrisolve::pack_rhs(small, 2), 2, reused);
  EXPECT_EQ(reused.positions, small.positions);
  EXPECT_EQ(reused.values, small.values);
}

TEST(Layout, OwnedRunsMatchOwnerScan) {
  // for_owned_runs against a position-by-position owner scan over every
  // window shape the solver uses ([0, t) pivots, [t, ns) tail, all).
  for (index_t q = 1; q <= 8; ++q) {
    for (index_t b = 1; b <= 9; ++b) {
      for (index_t ns = 0; ns <= 40; ++ns) {
        const index_t t = std::min<index_t>(ns, 11);
        const partrisolve::Layout lay{q, b, ns, t};
        for (const auto& [lo, hi] : {std::pair{index_t{0}, t},
                                     std::pair{t, ns},
                                     std::pair{index_t{0}, ns}}) {
          for (index_t r = 0; r < q; ++r) {
            std::vector<index_t> want;
            for (index_t i = lo; i < hi; ++i) {
              if (lay.owner_of(i) == r) want.push_back(i);
            }
            std::vector<index_t> got;
            lay.for_owned_runs(r, lo, hi, [&](index_t i0, index_t i1) {
              ASSERT_LT(i0, i1);
              ASSERT_EQ(lay.block_of(i0), lay.block_of(i1 - 1));
              for (index_t i = i0; i < i1; ++i) {
                ASSERT_EQ(lay.local_of(i), lay.local_of(i0) + (i - i0));
                got.push_back(i);
              }
            });
            ASSERT_EQ(got, want) << "q=" << q << " b=" << b << " ns=" << ns
                                 << " r=" << r << " [" << lo << "," << hi
                                 << ")";
          }
        }
        if (q == 1) {
          // A single-rank group stores every position at its own offset.
          for (index_t i = 0; i < ns; ++i) {
            ASSERT_EQ(lay.owner_of(i), 0);
            ASSERT_EQ(lay.local_of(i), i);
          }
        }
      }
    }
  }
}

class LoadBalanceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sparse::SymmetricCsc a = sparse::permute_symmetric(
        sparse::grid2d(31, 31), ordering::nested_dissection_grid2d(31, 31));
    sym_ = symbolic::symbolic_cholesky(a);
    part_ = symbolic::fundamental_supernodes(sym_);
    weights_ = mapping::solve_work_weights(part_);
  }
  symbolic::SymbolicFactor sym_;
  symbolic::SupernodePartition part_;
  std::vector<double> weights_;
};

TEST_F(LoadBalanceTest, WorkConserved) {
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(part_, 8, weights_);
  const mapping::LoadBalance lb =
      mapping::analyze_load_balance(part_, map, weights_);
  const double total_assigned = std::accumulate(
      lb.work_per_proc.begin(), lb.work_per_proc.end(), 0.0);
  const double total_work =
      std::accumulate(weights_.begin(), weights_.end(), 0.0);
  EXPECT_NEAR(total_assigned, total_work, 1e-6 * total_work);
  EXPECT_GE(lb.imbalance(), 1.0);
  EXPECT_LT(lb.imbalance(), 2.0);  // balanced grid, balanced tree
}

TEST_F(LoadBalanceTest, SingleProcessorIsPerfect) {
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(part_, 1, weights_);
  const mapping::LoadBalance lb =
      mapping::analyze_load_balance(part_, map, weights_);
  EXPECT_DOUBLE_EQ(lb.imbalance(), 1.0);
}

TEST_F(LoadBalanceTest, LevelProfileSumsToTotal) {
  const mapping::SubcubeMapping map =
      mapping::subtree_to_subcube(part_, 16, weights_);
  const mapping::LevelProfile prof =
      mapping::analyze_levels(part_, map, weights_);
  double sum = prof.sequential_work;
  for (double w : prof.work_at_level) sum += w;
  const double total =
      std::accumulate(weights_.begin(), weights_.end(), 0.0);
  EXPECT_NEAR(sum, total, 1e-9 * total);
  // Level 0 (the root) is shared by all 16 and must carry some work.
  ASSERT_FALSE(prof.work_at_level.empty());
  EXPECT_GT(prof.work_at_level[0], 0.0);
  EXPECT_GT(prof.sequential_work, 0.0);
}

}  // namespace
}  // namespace sparts
