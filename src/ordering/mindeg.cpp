#include "ordering/mindeg.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <vector>

#include "common/error.hpp"

namespace sparts::ordering {

namespace {

// Quotient-graph minimum degree.
//
// State per vertex v (while uneliminated):
//   adj[v]   — uneliminated neighbors (variables)
//   elts[v]  — adjacent elements (eliminated supervariables)
// State per element e: vars[e] — its uneliminated boundary variables.
//
// Eliminating v forms a new element whose boundary is
//   adj[v] ∪ (∪_{e ∈ elts[v]} vars[e]) \ {v},
// and absorbs the elements of elts[v].
class QuotientGraph {
 public:
  explicit QuotientGraph(const sparse::Graph& g)
      : n_(g.n()),
        adj_(static_cast<std::size_t>(n_)),
        elts_(static_cast<std::size_t>(n_)),
        vars_(static_cast<std::size_t>(n_)),
        eliminated_(static_cast<std::size_t>(n_), false),
        degree_(static_cast<std::size_t>(n_), 0),
        mark_(static_cast<std::size_t>(n_), -1) {
    for (index_t v = 0; v < n_; ++v) {
      auto nbrs = g.neighbors(v);
      adj_[static_cast<std::size_t>(v)].assign(nbrs.begin(), nbrs.end());
      degree_[static_cast<std::size_t>(v)] =
          static_cast<index_t>(nbrs.size());
      heap_.insert({degree_[static_cast<std::size_t>(v)], v});
    }
  }

  /// Vertex of minimum current degree (ties by id).
  index_t pop_min() {
    SPARTS_CHECK(!heap_.empty());
    const index_t v = heap_.begin()->second;
    heap_.erase(heap_.begin());
    return v;
  }

  bool empty() const { return heap_.empty(); }

  /// Eliminate v; updates degrees of affected variables.
  void eliminate(index_t v) {
    eliminated_[static_cast<std::size_t>(v)] = true;

    // Boundary of the new element (stored under v's id).
    std::vector<index_t> boundary;
    for (index_t u : adj_[static_cast<std::size_t>(v)]) {
      if (!eliminated_[static_cast<std::size_t>(u)]) boundary.push_back(u);
    }
    for (index_t e : elts_[static_cast<std::size_t>(v)]) {
      for (index_t u : vars_[static_cast<std::size_t>(e)]) {
        if (u != v && !eliminated_[static_cast<std::size_t>(u)]) {
          boundary.push_back(u);
        }
      }
      vars_[static_cast<std::size_t>(e)].clear();  // absorbed
    }
    std::sort(boundary.begin(), boundary.end());
    boundary.erase(std::unique(boundary.begin(), boundary.end()),
                   boundary.end());
    vars_[static_cast<std::size_t>(v)] = boundary;

    // Update every boundary variable: remove v and absorbed elements from
    // its lists, add the new element, recompute exterior degree.
    for (index_t u : boundary) {
      auto& ua = adj_[static_cast<std::size_t>(u)];
      ua.erase(std::remove(ua.begin(), ua.end(), v), ua.end());
      auto& ue = elts_[static_cast<std::size_t>(u)];
      ue.erase(std::remove_if(ue.begin(), ue.end(),
                              [this](index_t e) {
                                return vars_[static_cast<std::size_t>(e)]
                                    .empty();
                              }),
               ue.end());
      ue.push_back(v);

      // Exterior degree: |adj(u) \ eliminated| + |∪ vars(elements)| - dups,
      // counted with a marker array and a fresh stamp per recount.
      ++stamp_;
      index_t newdeg = 0;
      const auto count = [&](index_t w) {
        if (mark_[static_cast<std::size_t>(w)] != stamp_) {
          mark_[static_cast<std::size_t>(w)] = stamp_;
          ++newdeg;
        }
      };
      for (index_t w : ua) {
        if (!eliminated_[static_cast<std::size_t>(w)]) count(w);
      }
      for (index_t e : ue) {
        for (index_t w : vars_[static_cast<std::size_t>(e)]) {
          if (w != u) count(w);
        }
      }

      heap_.erase({degree_[static_cast<std::size_t>(u)], u});
      degree_[static_cast<std::size_t>(u)] = newdeg;
      heap_.insert({newdeg, u});
    }
  }

 private:
  index_t n_;
  std::vector<std::vector<index_t>> adj_;
  std::vector<std::vector<index_t>> elts_;
  std::vector<std::vector<index_t>> vars_;
  std::vector<bool> eliminated_;
  std::vector<index_t> degree_;
  std::vector<index_t> mark_;  ///< stamp of the last recount reaching w
  index_t stamp_ = -1;
  std::set<std::pair<index_t, index_t>> heap_;  // (degree, vertex)
};

/// Exact minimum degree on the elimination graph of a graph of at most 64
/// vertices, one uint64_t adjacency row per vertex.  Same degrees and the
/// same (degree, id) tie-break as QuotientGraph, so the same order: a
/// vertex's degree starts as its neighbor count and is recounted only when
/// an eliminated neighbor's clique changes its row.
std::vector<index_t> minimum_degree_small(const sparse::Graph& g) {
  const index_t n = g.n();
  SPARTS_DCHECK(n <= 64);
  std::uint64_t rows[64] = {};
  index_t degree[64] = {};
  for (index_t v = 0; v < n; ++v) {
    for (index_t u : g.neighbors(v)) rows[v] |= std::uint64_t{1} << u;
    degree[v] = g.degree(v);
  }
  std::uint64_t alive = n == 64 ? ~std::uint64_t{0}
                                : (std::uint64_t{1} << n) - 1;
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  while (alive != 0) {
    index_t v = std::countr_zero(alive);
    for (std::uint64_t rest = alive & (alive - 1); rest != 0;
         rest &= rest - 1) {
      const index_t u = std::countr_zero(rest);
      if (degree[u] < degree[v]) v = u;
    }
    order.push_back(v);
    const std::uint64_t vbit = std::uint64_t{1} << v;
    alive &= ~vbit;
    const std::uint64_t clique = rows[v] & alive;
    for (std::uint64_t rest = clique; rest != 0; rest &= rest - 1) {
      const index_t u = std::countr_zero(rest);
      rows[u] = (rows[u] | clique) & ~(vbit | std::uint64_t{1} << u);
      degree[u] = std::popcount(rows[u]);
    }
  }
  return order;
}

}  // namespace

sparse::Permutation minimum_degree(const sparse::Graph& g) {
  if (g.n() <= 64) return sparse::Permutation(minimum_degree_small(g));
  QuotientGraph qg(g);
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(g.n()));
  while (!qg.empty()) {
    const index_t v = qg.pop_min();
    order.push_back(v);
    qg.eliminate(v);
  }
  return sparse::Permutation(std::move(order));
}

sparse::Permutation minimum_degree(const sparse::SymmetricCsc& a) {
  return minimum_degree(sparse::Graph::from_symmetric(a));
}

}  // namespace sparts::ordering
