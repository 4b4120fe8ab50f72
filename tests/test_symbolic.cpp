// Symbolic factorization and supernode detection.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "numeric/simplicial.hpp"
#include "ordering/etree.hpp"
#include "ordering/nested_dissection.hpp"
#include "solver/workloads.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/supernodes.hpp"
#include "symbolic/symbolic.hpp"

namespace sparts::symbolic {
namespace {

TEST(Symbolic, StructureContainsMatrixAndIsClosed) {
  sparse::SymmetricCsc a = sparse::grid2d(7, 6);
  SymbolicFactor f = symbolic_cholesky(a);
  EXPECT_EQ(f.n, a.n());
  // A's lower entries are in L's structure.
  for (index_t j = 0; j < a.n(); ++j) {
    auto lrows = f.col_rows(j);
    std::set<index_t> lset(lrows.begin(), lrows.end());
    for (index_t i : a.col_rows(j)) {
      EXPECT_TRUE(lset.count(i)) << "(" << i << ", " << j << ")";
    }
  }
  // Fill closure: for i in struct(j) with parent(j) = p <= i, i must be in
  // struct(p) (the fundamental containment property).
  for (index_t j = 0; j < f.n; ++j) {
    const index_t p = f.etree.parent[static_cast<std::size_t>(j)];
    if (p == -1) continue;
    auto prows = f.col_rows(p);
    std::set<index_t> pset(prows.begin(), prows.end());
    for (index_t i : f.col_rows(j)) {
      if (i > j && i != p) {
        EXPECT_TRUE(pset.count(i))
            << "row " << i << " of col " << j << " missing from parent " << p;
      }
    }
  }
}

TEST(Symbolic, TridiagonalHasNoFill) {
  sparse::Triplets t(8, 8);
  for (index_t i = 0; i < 8; ++i) t.add(i, i, 4.0);
  for (index_t i = 0; i + 1 < 8; ++i) t.add(i + 1, i, -1.0);
  sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  SymbolicFactor f = symbolic_cholesky(a);
  EXPECT_EQ(f.nnz(), a.nnz_lower());
}

TEST(Symbolic, DenseMatrixFullStructure) {
  const index_t n = 6;
  sparse::Triplets t(n, n);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j; i < n; ++i) t.add(i, j, i == j ? 10.0 : -0.1);
  }
  sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  SymbolicFactor f = symbolic_cholesky(a);
  EXPECT_EQ(f.nnz(), n * (n + 1) / 2);
  // One supernode covering everything.
  SupernodePartition p = fundamental_supernodes(f);
  EXPECT_EQ(p.num_supernodes(), 1);
  EXPECT_EQ(p.width(0), n);
}

TEST(Symbolic, SimplicialValuesLiveInsideStructure) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(8, 8), ordering::nested_dissection_grid2d(8, 8));
  SymbolicFactor f = symbolic_cholesky(a);
  numeric::CscFactor l = numeric::simplicial_cholesky(a, f);
  // Reconstruct A = L L^T and compare on the stored pattern.
  for (index_t j = 0; j < a.n(); ++j) {
    auto rows = a.col_rows(j);
    auto vals = a.col_values(j);
    for (std::size_t z = 0; z < rows.size(); ++z) {
      const index_t i = rows[z];
      real_t s = 0.0;
      for (index_t k = 0; k <= j; ++k) {
        const real_t lik = i >= k ? l.at(i, k) : 0.0;
        const real_t ljk = j >= k ? l.at(j, k) : 0.0;
        s += lik * ljk;
      }
      EXPECT_NEAR(s, vals[z], 1e-10) << "(" << i << ", " << j << ")";
    }
  }
}

TEST(Supernodes, PartitionInvariants) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(9, 9), ordering::nested_dissection_grid2d(9, 9));
  SymbolicFactor f = symbolic_cholesky(a);
  SupernodePartition p = fundamental_supernodes(f);
  p.check_consistent();
  // Every column is covered exactly once.
  EXPECT_EQ(p.n(), a.n());
  // Supernode structure matches the symbolic first column.
  for (index_t s = 0; s < p.num_supernodes(); ++s) {
    auto sym_rows = f.col_rows(p.first_col[static_cast<std::size_t>(s)]);
    auto sup_rows = p.row_indices(s);
    ASSERT_EQ(sym_rows.size(), sup_rows.size());
    for (std::size_t k = 0; k < sym_rows.size(); ++k) {
      EXPECT_EQ(sym_rows[k], sup_rows[k]);
    }
  }
}

TEST(Supernodes, ColumnsWithinSupernodeShareStructure) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(10, 10), ordering::nested_dissection_grid2d(10, 10));
  SymbolicFactor f = symbolic_cholesky(a);
  SupernodePartition p = fundamental_supernodes(f);
  for (index_t s = 0; s < p.num_supernodes(); ++s) {
    const index_t j0 = p.first_col[static_cast<std::size_t>(s)];
    for (index_t j = j0 + 1; j < p.first_col[static_cast<std::size_t>(s) + 1];
         ++j) {
      // struct(j) = struct(j-1) \ {j-1}.
      auto prev = f.col_rows(j - 1);
      auto cur = f.col_rows(j);
      ASSERT_EQ(cur.size() + 1, prev.size());
      for (std::size_t k = 0; k < cur.size(); ++k) {
        EXPECT_EQ(cur[k], prev[k + 1]);
      }
    }
  }
}

TEST(Supernodes, AmalgamationReducesCountAndStaysConsistent) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(12, 12), ordering::nested_dissection_grid2d(12, 12));
  SymbolicFactor f = symbolic_cholesky(a);
  SupernodePartition p = fundamental_supernodes(f);
  SupernodePartition q = amalgamate(f, p, /*max_width=*/16,
                                    /*relax_zeros=*/8);
  q.check_consistent();
  EXPECT_LT(q.num_supernodes(), p.num_supernodes());
  EXPECT_EQ(q.n(), p.n());
  // Amalgamation can only add storage (explicit zeros), never lose
  // structure.
  EXPECT_GE(q.total_block_entries(), p.total_block_entries());
  // Every symbolic entry is still representable.
  for (index_t j = 0; j < f.n; ++j) {
    const index_t s = q.sup_of_col[static_cast<std::size_t>(j)];
    auto rows = q.row_indices(s);
    std::set<index_t> rset(rows.begin(), rows.end());
    for (index_t i : f.col_rows(j)) {
      EXPECT_TRUE(rset.count(i));
    }
  }
}

TEST(Supernodes, FlopAccountingConsistent) {
  sparse::SymmetricCsc a = sparse::permute_symmetric(
      sparse::grid2d(8, 8), ordering::nested_dissection_grid2d(8, 8));
  SymbolicFactor f = symbolic_cholesky(a);
  SupernodePartition p = fundamental_supernodes(f);
  // Supernodal solve flops (with trapezoid padding) must be at least the
  // sparse count 4*nnz(L) and within a reasonable factor of it.
  nnz_t supernodal = 0;
  for (index_t s = 0; s < p.num_supernodes(); ++s) {
    supernodal += 2 * p.solve_flops(s, 1);
  }
  EXPECT_GE(supernodal, 2 * f.nnz());
  EXPECT_LE(supernodal, 8 * f.nnz());
}


/// The column structures of L the plain way: every column merges A's
/// column and all its children's structures, then is sorted.
std::vector<std::vector<index_t>> sorted_merge_oracle(
    const sparse::SymmetricCsc& a) {
  const ordering::EliminationTree t = ordering::elimination_tree(a);
  const auto children = ordering::tree_children(t);
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(a.n()));
  for (index_t j = 0; j < a.n(); ++j) {
    std::set<index_t> rows;
    for (index_t i : a.col_rows(j)) rows.insert(i);
    for (index_t c : children[static_cast<std::size_t>(j)]) {
      for (index_t i : cols[static_cast<std::size_t>(c)]) {
        if (i >= j) rows.insert(i);
      }
    }
    cols[static_cast<std::size_t>(j)].assign(rows.begin(), rows.end());
  }
  return cols;
}

TEST(Symbolic, MatchesSortedMergeOracle) {
  // symbolic_cholesky sorts a column only when a row arrives after its
  // first child's; the result must equal sorting every column.
  sparse::Triplets chain(500, 500);
  for (index_t i = 0; i < 500; ++i) chain.add(i, i, 4.0);
  for (index_t i = 0; i + 1 < 500; ++i) chain.add(i + 1, i, -1.0);
  const sparse::SymmetricCsc grid = sparse::grid2d(40, 40);
  const sparse::SymmetricCsc bcsstk =
      solver::paper_problem("BCSSTK15", 0.5).matrix;
  const sparse::SymmetricCsc grid3 = sparse::grid3d(12, 12, 12);
  const std::vector<sparse::SymmetricCsc> mats = {
      sparse::permute_symmetric(grid, ordering::nested_dissection(grid)),
      sparse::permute_symmetric(bcsstk, ordering::nested_dissection(bcsstk)),
      sparse::permute_symmetric(grid3, ordering::nested_dissection(grid3)),
      sparse::SymmetricCsc::from_triplets(chain),
      grid};
  for (const sparse::SymmetricCsc& a : mats) {
    const SymbolicFactor f = symbolic_cholesky(a);
    const auto want = sorted_merge_oracle(a);
    ASSERT_EQ(f.n, a.n());
    for (index_t j = 0; j < a.n(); ++j) {
      const auto got = f.col_rows(j);
      const auto& w = want[static_cast<std::size_t>(j)];
      ASSERT_TRUE(std::equal(got.begin(), got.end(), w.begin(), w.end()))
          << "n = " << a.n() << ", column " << j;
    }
  }
}

}  // namespace
}  // namespace sparts::symbolic
