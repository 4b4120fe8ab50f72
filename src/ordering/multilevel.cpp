#include "ordering/multilevel.hpp"

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "ordering/rcm.hpp"

namespace sparts::ordering {

namespace {

/// Weighted graph used internally by the multilevel hierarchy: vertex
/// weights count the fine vertices a coarse vertex represents; edge
/// weights count the fine edges a coarse edge aggregates.
struct WGraph {
  index_t n = 0;
  std::vector<nnz_t> xadj;
  std::vector<index_t> adjncy;
  std::vector<index_t> ewgt;
  std::vector<index_t> vwgt;

  std::span<const index_t> neighbors(index_t v) const {
    return {adjncy.data() + xadj[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(xadj[static_cast<std::size_t>(v) + 1] -
                                     xadj[static_cast<std::size_t>(v)])};
  }
  std::span<const index_t> weights(index_t v) const {
    return {ewgt.data() + xadj[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(xadj[static_cast<std::size_t>(v) + 1] -
                                     xadj[static_cast<std::size_t>(v)])};
  }
};

WGraph lift(const sparse::Graph& g) {
  WGraph w;
  w.n = g.n();
  w.xadj.assign(static_cast<std::size_t>(w.n) + 1, 0);
  for (index_t v = 0; v < w.n; ++v) {
    w.xadj[static_cast<std::size_t>(v) + 1] =
        w.xadj[static_cast<std::size_t>(v)] + g.degree(v);
  }
  w.adjncy.reserve(static_cast<std::size_t>(w.xadj.back()));
  for (index_t v = 0; v < w.n; ++v) {
    auto nb = g.neighbors(v);
    w.adjncy.insert(w.adjncy.end(), nb.begin(), nb.end());
  }
  w.ewgt.assign(w.adjncy.size(), 1);
  w.vwgt.assign(static_cast<std::size_t>(w.n), 1);
  return w;
}

/// One coarsening level: heavy-edge matching + contraction.
/// cmap[v] = coarse vertex of v.
WGraph coarsen(const WGraph& g, std::vector<index_t>& cmap) {
  const index_t n = g.n;
  cmap.assign(static_cast<std::size_t>(n), -1);
  const auto degree = [&g](index_t v) {
    return static_cast<std::size_t>(g.xadj[static_cast<std::size_t>(v) + 1] -
                                    g.xadj[static_cast<std::size_t>(v)]);
  };

  // Visit vertices in ascending degree, ties by id (low-degree first
  // matches better): a counting sort over the ids in ascending order.
  std::size_t max_degree = 0;
  for (index_t v = 0; v < n; ++v) max_degree = std::max(max_degree, degree(v));
  std::vector<index_t> start(max_degree + 2, 0);
  for (index_t v = 0; v < n; ++v) ++start[degree(v) + 1];
  for (std::size_t d = 1; d < start.size(); ++d) start[d] += start[d - 1];
  std::vector<index_t> order(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    order[static_cast<std::size_t>(start[degree(v)]++)] = v;
  }

  // members[cv]: the one or two fine vertices of coarse vertex cv,
  // ascending (second = -1 for an unmatched vertex).
  std::vector<std::pair<index_t, index_t>> members;
  members.reserve(static_cast<std::size_t>(n));
  for (index_t v : order) {
    if (cmap[static_cast<std::size_t>(v)] != -1) continue;
    // Heaviest unmatched neighbor.
    index_t best = -1;
    index_t best_w = -1;
    auto nb = g.neighbors(v);
    auto wt = g.weights(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const index_t u = nb[i];
      if (u == v || cmap[static_cast<std::size_t>(u)] != -1) continue;
      if (wt[i] > best_w) {
        best_w = wt[i];
        best = u;
      }
    }
    const index_t cv = static_cast<index_t>(members.size());
    cmap[static_cast<std::size_t>(v)] = cv;
    if (best == -1) {
      members.emplace_back(v, -1);
    } else {
      cmap[static_cast<std::size_t>(best)] = cv;
      members.emplace_back(std::min(v, best), std::max(v, best));
    }
  }
  const index_t nc = static_cast<index_t>(members.size());

  // Contract.
  WGraph c;
  c.n = nc;
  c.vwgt.assign(static_cast<std::size_t>(nc), 0);
  for (index_t v = 0; v < n; ++v) {
    c.vwgt[static_cast<std::size_t>(cmap[static_cast<std::size_t>(v)])] +=
        g.vwgt[static_cast<std::size_t>(v)];
  }
  // One pass: coarse vertex cv visits its fine members in ascending id and
  // lists each distinct coarse neighbor once, at its first appearance,
  // summing the weights of the fine edges it aggregates.  The fine edge
  // count bounds the coarse one.
  c.xadj.assign(static_cast<std::size_t>(nc) + 1, 0);
  c.adjncy.reserve(g.adjncy.size());
  c.ewgt.reserve(g.adjncy.size());
  std::vector<index_t> mark(static_cast<std::size_t>(nc), -1);
  std::vector<std::size_t> pos(static_cast<std::size_t>(nc), 0);
  for (index_t cv = 0; cv < nc; ++cv) {
    const auto [first, second] = members[static_cast<std::size_t>(cv)];
    for (const index_t v : {first, second}) {
      if (v == -1) break;
      auto nb = g.neighbors(v);
      auto wt = g.weights(v);
      for (std::size_t i = 0; i < nb.size(); ++i) {
        const index_t cu = cmap[static_cast<std::size_t>(nb[i])];
        if (cu == cv) continue;  // contracted or self edge
        if (mark[static_cast<std::size_t>(cu)] != cv) {
          mark[static_cast<std::size_t>(cu)] = cv;
          pos[static_cast<std::size_t>(cu)] = c.adjncy.size();
          c.adjncy.push_back(cu);
          c.ewgt.push_back(wt[i]);
        } else {
          c.ewgt[pos[static_cast<std::size_t>(cu)]] += wt[i];
        }
      }
    }
    c.xadj[static_cast<std::size_t>(cv) + 1] =
        static_cast<nnz_t>(c.adjncy.size());
  }
  // Every level stays alive until uncoarsening ends: keep it exact-size.
  c.adjncy.shrink_to_fit();
  c.ewgt.shrink_to_fit();
  return c;
}

// Labels: 0 = side A, 1 = side B, 2 = separator.
using Labels = std::vector<int>;

index_t side_weight(const WGraph& g, const Labels& labels, int side) {
  index_t w = 0;
  for (index_t v = 0; v < g.n; ++v) {
    if (labels[static_cast<std::size_t>(v)] == side) {
      w += g.vwgt[static_cast<std::size_t>(v)];
    }
  }
  return w;
}

/// Approximate pseudo-peripheral vertex by two BFS sweeps.
index_t far_vertex(const WGraph& g, index_t start) {
  index_t last = start;
  for (int sweep = 0; sweep < 2; ++sweep) {
    std::vector<int> seen(static_cast<std::size_t>(g.n), 0);
    std::vector<index_t> queue{last};
    seen[static_cast<std::size_t>(last)] = 1;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      last = queue[head];
      for (index_t u : g.neighbors(queue[head])) {
        if (!seen[static_cast<std::size_t>(u)]) {
          seen[static_cast<std::size_t>(u)] = 1;
          queue.push_back(u);
        }
      }
    }
  }
  return last;
}

/// BFS bisection + boundary separator on a weighted graph.
Labels base_separator(const WGraph& g) {
  Labels labels(static_cast<std::size_t>(g.n), 1);
  const index_t total = side_weight(g, labels, 1);

  // BFS from a pseudo-peripheral vertex until half the weight is reached.
  const index_t start = far_vertex(g, 0);
  std::vector<int> seen(static_cast<std::size_t>(g.n), 0);
  std::vector<index_t> queue{start};
  seen[static_cast<std::size_t>(start)] = 1;
  index_t acc = 0;
  std::size_t head = 0;
  while (head < queue.size() && acc * 2 < total) {
    const index_t v = queue[head++];
    labels[static_cast<std::size_t>(v)] = 0;
    acc += g.vwgt[static_cast<std::size_t>(v)];
    for (index_t u : g.neighbors(v)) {
      if (!seen[static_cast<std::size_t>(u)]) {
        seen[static_cast<std::size_t>(u)] = 1;
        queue.push_back(u);
      }
    }
  }
  // Boundary of A facing B becomes the separator.
  for (index_t v = 0; v < g.n; ++v) {
    if (labels[static_cast<std::size_t>(v)] != 0) continue;
    for (index_t u : g.neighbors(v)) {
      if (labels[static_cast<std::size_t>(u)] == 1) {
        labels[static_cast<std::size_t>(v)] = 2;
        break;
      }
    }
  }
  return labels;
}

/// Greedy separator refinement: move a separator vertex into a side when
/// the swap shrinks the separator weight and keeps the sides balanced.
void refine(const WGraph& g, Labels& labels, int sweeps) {
  for (int sweep = 0; sweep < sweeps; ++sweep) {
    bool changed = false;
    index_t wa = side_weight(g, labels, 0);
    index_t wb = side_weight(g, labels, 1);
    for (index_t v = 0; v < g.n; ++v) {
      if (labels[static_cast<std::size_t>(v)] != 2) continue;
      // Weight of neighbors that would be dragged into the separator if v
      // joined side A (= its B-side neighbors) and vice versa.
      index_t drag_a = 0, drag_b = 0;
      for (index_t u : g.neighbors(v)) {
        if (labels[static_cast<std::size_t>(u)] == 1) {
          drag_a += g.vwgt[static_cast<std::size_t>(u)];
        } else if (labels[static_cast<std::size_t>(u)] == 0) {
          drag_b += g.vwgt[static_cast<std::size_t>(u)];
        }
      }
      const index_t vw = g.vwgt[static_cast<std::size_t>(v)];
      // Prefer the move with positive gain that improves balance.
      const bool a_ok = drag_a < vw || (drag_a == vw && wa < wb);
      const bool b_ok = drag_b < vw || (drag_b == vw && wb < wa);
      int target = -1;
      if (a_ok && (!b_ok || drag_a < drag_b ||
                   (drag_a == drag_b && wa <= wb))) {
        target = 0;
      } else if (b_ok) {
        target = 1;
      }
      if (target == -1) continue;
      labels[static_cast<std::size_t>(v)] = target;
      (target == 0 ? wa : wb) += vw;
      const int other = 1 - target;
      for (index_t u : g.neighbors(v)) {
        if (labels[static_cast<std::size_t>(u)] == other) {
          labels[static_cast<std::size_t>(u)] = 2;
          (other == 0 ? wa : wb) -= g.vwgt[static_cast<std::size_t>(u)];
        }
      }
      changed = true;
    }
    if (!changed) break;
  }
}

}  // namespace

Separator multilevel_vertex_separator(const sparse::Graph& g,
                                      const MultilevelOptions& opts) {
  SPARTS_CHECK(g.n() >= 2);
  if (g.n() <= opts.coarsest_size) {
    return find_vertex_separator(g);
  }

  // Coarsen.
  std::vector<WGraph> levels;
  std::vector<std::vector<index_t>> cmaps;
  levels.push_back(lift(g));
  while (levels.back().n > opts.coarsest_size) {
    std::vector<index_t> cmap;
    WGraph coarse = coarsen(levels.back(), cmap);
    if (static_cast<double>(coarse.n) >
        opts.min_shrink * static_cast<double>(levels.back().n)) {
      break;  // matching stalled (e.g. star graphs)
    }
    cmaps.push_back(std::move(cmap));
    levels.push_back(std::move(coarse));
  }

  // Base separator + uncoarsen with refinement.
  Labels labels = base_separator(levels.back());
  refine(levels.back(), labels, opts.refine_sweeps);
  for (std::size_t l = cmaps.size(); l-- > 0;) {
    const WGraph& fine = levels[l];
    Labels fine_labels(static_cast<std::size_t>(fine.n));
    for (index_t v = 0; v < fine.n; ++v) {
      fine_labels[static_cast<std::size_t>(v)] =
          labels[static_cast<std::size_t>(cmaps[l][static_cast<std::size_t>(v)])];
    }
    labels = std::move(fine_labels);
    refine(fine, labels, opts.refine_sweeps);
  }

  Separator s;
  for (index_t v = 0; v < g.n(); ++v) {
    switch (labels[static_cast<std::size_t>(v)]) {
      case 0: s.left.push_back(v); break;
      case 1: s.right.push_back(v); break;
      default: s.sep.push_back(v); break;
    }
  }
  // Degenerate result: fall back to the single-level heuristic.
  if (s.left.empty() || s.right.empty() || s.sep.empty()) {
    return find_vertex_separator(g);
  }
  return s;
}

}  // namespace sparts::ordering
