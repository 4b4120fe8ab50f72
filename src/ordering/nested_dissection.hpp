// Nested-dissection fill-reducing orderings.
//
// The paper's analysis assumes a nested-dissection ordering whose separator
// sizes follow the planar / 3-D separator theorems (O(sqrt(N)) and
// O(N^{2/3})) and whose elimination tree is nearly balanced — exactly what
// these routines produce.
//
// Two flavors:
//   * Geometric ND for regular grids: exact recursive coordinate
//     bisection with cross-line separators.  Produces perfectly balanced
//     trees; the workhorse for the scalability experiments.
//   * General-graph ND: BFS-based vertex separators with boundary
//     minimization, compared against the multilevel separator
//     (ordering/multilevel.hpp) on large subgraphs, and exact minimum
//     degree on leaves of at most 64 vertices (one machine word per
//     adjacency row, ordering/mindeg.hpp).  Handles the unstructured
//     workloads (jittered meshes, random SPD).
//
// General ND runs the two halves of each dissection as tasks on an
// exec::TaskScheduler with the scheduler's default worker count
// ($SPARTS_TASK_WORKERS, else the host's hardware concurrency); small
// subgraphs recurse inline.  A subgraph's slice of the output (left |
// right | separator) is fixed once its separator is chosen, so the
// permutation does not depend on the worker count or the task order.
#pragma once

#include "sparse/formats.hpp"
#include "sparse/permutation.hpp"

namespace sparts::ordering {

/// Options for general-graph nested dissection.
struct NdOptions {
  /// Subgraphs of at most this many vertices are ordered by minimum degree.
  index_t leaf_size = 64;
  /// Use the multilevel separator engine (ordering/multilevel.hpp) for
  /// subgraphs larger than `multilevel_threshold`; smaller ones use the
  /// single-level BFS heuristic directly.
  bool multilevel = true;
  index_t multilevel_threshold = 400;
};

/// Geometric nested dissection of a kx x ky grid (vertex v = y*kx + x).
/// Separator-last ordering: vertices of the top-level separator are
/// numbered last.
sparse::Permutation nested_dissection_grid2d(index_t kx, index_t ky);

/// Geometric nested dissection of a kx x ky x kz grid
/// (v = (z*ky + y)*kx + x).
sparse::Permutation nested_dissection_grid3d(index_t kx, index_t ky,
                                             index_t kz);

/// General-graph nested dissection.  Deterministic: the same graph gives
/// the same permutation at every worker count.  An exception thrown while
/// ordering a half is rethrown here.
sparse::Permutation nested_dissection(const sparse::Graph& g,
                                      const NdOptions& opts = {});

/// Convenience overload over the matrix pattern.
sparse::Permutation nested_dissection(const sparse::SymmetricCsc& a,
                                      const NdOptions& opts = {});

/// A vertex separator of g: vertices whose removal disconnects the rest
/// into `left` and `right` with no edges between them.  Exposed for tests.
struct Separator {
  std::vector<index_t> left;
  std::vector<index_t> right;
  std::vector<index_t> sep;
};

/// Compute a vertex separator by BFS level bisection + boundary extraction
/// + one-sided shrink refinement.  `g` must be non-empty.
Separator find_vertex_separator(const sparse::Graph& g);

}  // namespace sparts::ordering
