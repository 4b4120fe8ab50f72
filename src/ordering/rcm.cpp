#include "ordering/rcm.hpp"

#include <algorithm>
#include <queue>

#include "common/error.hpp"

namespace sparts::ordering {

index_t pseudo_peripheral_vertex(const sparse::Graph& g, index_t start) {
  SPARTS_CHECK(start >= 0 && start < g.n());
  // One BFS per iteration over a reused queue and level array; only the
  // vertices a sweep reached are reset before the next one.
  std::vector<index_t> level(static_cast<std::size_t>(g.n()), -1);
  std::vector<index_t> queue;
  queue.reserve(static_cast<std::size_t>(g.n()));
  index_t v = start;
  index_t last_depth = -1;
  for (int iter = 0; iter < 8; ++iter) {  // converges in a few iterations
    queue.assign(1, v);
    level[static_cast<std::size_t>(v)] = 0;
    std::size_t deepest = 0;  // queue position where the deepest level starts
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const index_t w = queue[head];
      const index_t d = level[static_cast<std::size_t>(w)];
      if (d != level[static_cast<std::size_t>(queue[deepest])]) deepest = head;
      for (index_t u : g.neighbors(w)) {
        if (level[static_cast<std::size_t>(u)] == -1) {
          level[static_cast<std::size_t>(u)] = d + 1;
          queue.push_back(u);
        }
      }
    }
    const index_t depth = level[static_cast<std::size_t>(queue.back())];
    // The far end: a vertex of minimal degree in the deepest level, the
    // first one in BFS order.
    index_t far = queue[deepest];
    for (std::size_t k = deepest; k < queue.size(); ++k) {
      if (g.degree(queue[k]) < g.degree(far)) far = queue[k];
    }
    for (index_t w : queue) level[static_cast<std::size_t>(w)] = -1;
    if (depth <= last_depth) break;
    last_depth = depth;
    v = far;
  }
  return v;
}

sparse::Permutation rcm(const sparse::Graph& g) {
  const index_t n = g.n();
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);

  for (index_t seed = 0; seed < n; ++seed) {
    if (visited[static_cast<std::size_t>(seed)]) continue;
    const index_t start = pseudo_peripheral_vertex(g, seed);
    // Cuthill-McKee BFS with neighbors sorted by ascending degree.
    std::queue<index_t> q;
    q.push(start);
    visited[static_cast<std::size_t>(start)] = true;
    while (!q.empty()) {
      const index_t v = q.front();
      q.pop();
      order.push_back(v);
      std::vector<index_t> nbrs;
      for (index_t u : g.neighbors(v)) {
        if (!visited[static_cast<std::size_t>(u)]) {
          visited[static_cast<std::size_t>(u)] = true;
          nbrs.push_back(u);
        }
      }
      std::sort(nbrs.begin(), nbrs.end(), [&g](index_t a, index_t b) {
        const index_t da = g.degree(a), db = g.degree(b);
        return da != db ? da < db : a < b;
      });
      for (index_t u : nbrs) q.push(u);
    }
  }
  SPARTS_CHECK(static_cast<index_t>(order.size()) == n);
  std::reverse(order.begin(), order.end());
  return sparse::Permutation(std::move(order));
}

sparse::Permutation rcm(const sparse::SymmetricCsc& a) {
  return rcm(sparse::Graph::from_symmetric(a));
}

}  // namespace sparts::ordering
