#include "symbolic/symbolic.hpp"

#include <algorithm>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "sparse/validate.hpp"

namespace sparts::symbolic {

SymbolicFactor symbolic_cholesky(const sparse::SymmetricCsc& a) {
  SPARTS_VALIDATE_EXPENSIVE(sparse::validate_symmetric_csc(a));
  const index_t n = a.n();
  SymbolicFactor f;
  f.n = n;
  f.etree = ordering::elimination_tree(a);
  auto children = ordering::tree_children(f.etree);

  // Build column structures bottom-up: j, then the rows below j of its
  // first child (already sorted), then the other children's rows and A's
  // column, deduplicated by a marker array.  Only rows merged after the
  // first child can break the order, so a column is sorted only when one
  // was added; along a supernode chain none is.
  std::vector<std::vector<index_t>> cols(static_cast<std::size_t>(n));
  std::vector<index_t> mark(static_cast<std::size_t>(n), -1);
  nnz_t total = 0;
  for (index_t j = 0; j < n; ++j) {
    std::vector<index_t>& out = cols[static_cast<std::size_t>(j)];
    mark[static_cast<std::size_t>(j)] = j;
    out.push_back(j);
    const auto merge = [&](std::span<const index_t> rows) {
      for (index_t i : rows) {
        if (i > j && mark[static_cast<std::size_t>(i)] != j) {
          mark[static_cast<std::size_t>(i)] = j;
          out.push_back(i);
        }
      }
    };
    const auto& kids = children[static_cast<std::size_t>(j)];
    if (!kids.empty()) merge(cols[static_cast<std::size_t>(kids.front())]);
    const std::size_t sorted_end = out.size();
    for (std::size_t k = 1; k < kids.size(); ++k) {
      merge(cols[static_cast<std::size_t>(kids[k])]);
    }
    merge(a.col_rows(j));
    if (out.size() > sorted_end) std::sort(out.begin(), out.end());
    SPARTS_DCHECK(out.front() == j);
    total += static_cast<nnz_t>(out.size());
  }

  f.colptr.assign(static_cast<std::size_t>(n) + 1, 0);
  f.rowind.reserve(static_cast<std::size_t>(total));
  for (index_t j = 0; j < n; ++j) {
    f.colptr[static_cast<std::size_t>(j)] =
        static_cast<nnz_t>(f.rowind.size());
    const auto& cj = cols[static_cast<std::size_t>(j)];
    f.rowind.insert(f.rowind.end(), cj.begin(), cj.end());
  }
  f.colptr[static_cast<std::size_t>(n)] = static_cast<nnz_t>(f.rowind.size());
  return f;
}

std::vector<index_t> SymbolicFactor::column_counts() const {
  std::vector<index_t> counts(static_cast<std::size_t>(n));
  for (index_t j = 0; j < n; ++j) {
    counts[static_cast<std::size_t>(j)] =
        static_cast<index_t>(col_rows(j).size());
  }
  return counts;
}

nnz_t SymbolicFactor::factorization_flops() const {
  nnz_t flops = 0;
  for (index_t j = 0; j < n; ++j) {
    const nnz_t cj = static_cast<nnz_t>(col_rows(j).size());
    // One sqrt + (cj-1) divisions + (cj-1)*cj multiply-adds (2 flops each)
    // charged to column j's elimination.
    flops += 1 + (cj - 1) + (cj - 1) * cj;
  }
  return flops;
}

}  // namespace sparts::symbolic
