// Minimum-degree fill-reducing ordering via the quotient-graph (element
// absorption) model: one vertex at a time with exact external degrees, not
// the multiple-elimination (MMD) or approximate-degree (AMD) variants.
// Serves two roles:
//   * baseline ordering in fill comparisons, and
//   * leaf-subgraph ordering inside nested dissection.
#pragma once

#include "sparse/formats.hpp"
#include "sparse/permutation.hpp"

namespace sparts::ordering {

/// Exact minimum exterior-degree ordering, ties broken by vertex id.  A
/// graph of at most 64 vertices (every nested-dissection leaf) is
/// eliminated on its elimination graph held as one 64-bit row per vertex;
/// larger ones use a quotient graph.  Both give the same order.
sparse::Permutation minimum_degree(const sparse::Graph& g);

/// Convenience overload over the matrix pattern.
sparse::Permutation minimum_degree(const sparse::SymmetricCsc& a);

}  // namespace sparts::ordering
