// Multilevel vertex-separator bisection — the Karypis-Kumar scheme the
// paper cites ([7]) as its companion ordering work, in sequential form:
//
//   1. COARSEN: contract a heavy-edge matching repeatedly until the graph
//      is small (vertex/edge weights accumulate);
//   2. BASE: find a vertex separator of the coarsest graph with the BFS
//      bisection heuristic;
//   3. UNCOARSEN: project the (side, separator) labels back one level at a
//      time, re-extracting and greedily refining the separator at each.
//
// Coarsening matches vertices in ascending (degree, id) order (a counting
// sort), and a coarse vertex lists its neighbors by visiting its one or
// two fine vertices in ascending id; these two orders fix every later
// tie-break.  Refinement is a greedy sweep of single-vertex moves out of
// the separator, not Fiduccia-Mattheyses.
//
// nested_dissection() computes it beside the single-level BFS separator
// for every subgraph above NdOptions::multilevel_threshold and keeps the
// smaller balanced one; it may run on several scheduler workers at once
// for different subgraphs, so it keeps no shared state.
#pragma once

#include "ordering/nested_dissection.hpp"
#include "sparse/formats.hpp"

namespace sparts::ordering {

struct MultilevelOptions {
  /// Stop coarsening at this many vertices.
  index_t coarsest_size = 240;
  /// Stop coarsening when a level shrinks by less than this factor.
  double min_shrink = 0.85;
  /// Greedy separator-refinement sweeps per level.
  int refine_sweeps = 4;
};

/// Multilevel vertex separator of g (which must have >= 2 vertices).
/// Falls back to the single-level heuristic for tiny graphs.
Separator multilevel_vertex_separator(const sparse::Graph& g,
                                      const MultilevelOptions& opts = {});

}  // namespace sparts::ordering
