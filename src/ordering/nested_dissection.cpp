#include "ordering/nested_dissection.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"
#include "exec/task_scheduler.hpp"
#include "exec/taskgraph.hpp"
#include "ordering/mindeg.hpp"
#include "ordering/multilevel.hpp"
#include "ordering/rcm.hpp"

namespace sparts::ordering {

namespace {

// ---------------------------------------------------------------------------
// Geometric ND on boxes.  A box is [x0, x0+nx) x [y0, y0+ny) x [z0, z0+nz);
// 2-D grids use nz = 1.  Recursion emits vertex ids into `order` with the
// separator of each box numbered after its two halves.
// ---------------------------------------------------------------------------

struct Box {
  index_t x0, y0, z0;
  index_t nx, ny, nz;
};

void geometric_nd(const Box& box, index_t kx, index_t ky,
                  std::vector<index_t>& order) {
  auto id = [kx, ky](index_t x, index_t y, index_t z) {
    return (z * ky + y) * kx + x;
  };
  const index_t total = box.nx * box.ny * box.nz;
  if (total <= 0) return;
  // Base case: small boxes are emitted in natural order (their internal
  // order does not affect fill asymptotics; they become leaf subtrees).
  if (total <= 2 || (box.nx <= 2 && box.ny <= 2 && box.nz <= 2)) {
    for (index_t z = box.z0; z < box.z0 + box.nz; ++z) {
      for (index_t y = box.y0; y < box.y0 + box.ny; ++y) {
        for (index_t x = box.x0; x < box.x0 + box.nx; ++x) {
          order.push_back(id(x, y, z));
        }
      }
    }
    return;
  }
  // Split the longest dimension with a one-cell-thick separator plane.
  if (box.nx >= box.ny && box.nx >= box.nz) {
    const index_t cut = box.nx / 2;  // separator plane x = x0 + cut
    geometric_nd({box.x0, box.y0, box.z0, cut, box.ny, box.nz}, kx, ky, order);
    geometric_nd({box.x0 + cut + 1, box.y0, box.z0, box.nx - cut - 1, box.ny,
                  box.nz},
                 kx, ky, order);
    for (index_t z = box.z0; z < box.z0 + box.nz; ++z) {
      for (index_t y = box.y0; y < box.y0 + box.ny; ++y) {
        order.push_back(id(box.x0 + cut, y, z));
      }
    }
  } else if (box.ny >= box.nz) {
    const index_t cut = box.ny / 2;
    geometric_nd({box.x0, box.y0, box.z0, box.nx, cut, box.nz}, kx, ky, order);
    geometric_nd({box.x0, box.y0 + cut + 1, box.z0, box.nx, box.ny - cut - 1,
                  box.nz},
                 kx, ky, order);
    for (index_t z = box.z0; z < box.z0 + box.nz; ++z) {
      for (index_t x = box.x0; x < box.x0 + box.nx; ++x) {
        order.push_back(id(x, box.y0 + cut, z));
      }
    }
  } else {
    const index_t cut = box.nz / 2;
    geometric_nd({box.x0, box.y0, box.z0, box.nx, box.ny, cut}, kx, ky, order);
    geometric_nd({box.x0, box.y0, box.z0 + cut + 1, box.nx, box.ny,
                  box.nz - cut - 1},
                 kx, ky, order);
    for (index_t y = box.y0; y < box.y0 + box.ny; ++y) {
      for (index_t x = box.x0; x < box.x0 + box.nx; ++x) {
        order.push_back(id(x, y, box.z0 + cut));
      }
    }
  }
}

}  // namespace

sparse::Permutation nested_dissection_grid2d(index_t kx, index_t ky) {
  SPARTS_CHECK(kx > 0 && ky > 0);
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(kx * ky));
  geometric_nd({0, 0, 0, kx, ky, 1}, kx, ky, order);
  SPARTS_CHECK(static_cast<index_t>(order.size()) == kx * ky);
  return sparse::Permutation(std::move(order));
}

sparse::Permutation nested_dissection_grid3d(index_t kx, index_t ky,
                                             index_t kz) {
  SPARTS_CHECK(kx > 0 && ky > 0 && kz > 0);
  std::vector<index_t> order;
  order.reserve(static_cast<std::size_t>(kx * ky * kz));
  geometric_nd({0, 0, 0, kx, ky, kz}, kx, ky, order);
  SPARTS_CHECK(static_cast<index_t>(order.size()) == kx * ky * kz);
  return sparse::Permutation(std::move(order));
}

Separator find_vertex_separator(const sparse::Graph& g) {
  const index_t n = g.n();
  SPARTS_CHECK(n > 0);

  // 1. BFS from a pseudo-peripheral vertex of the largest component;
  //    accumulate levels until ~half the vertices are covered.
  const index_t start = pseudo_peripheral_vertex(g, 0);
  std::vector<index_t> level(static_cast<std::size_t>(n), -1);
  std::vector<index_t> frontier{start};
  level[static_cast<std::size_t>(start)] = 0;
  std::vector<index_t> bfs_order{start};
  index_t depth = 0;
  while (!frontier.empty()) {
    std::vector<index_t> next;
    for (index_t v : frontier) {
      for (index_t u : g.neighbors(v)) {
        if (level[static_cast<std::size_t>(u)] == -1) {
          level[static_cast<std::size_t>(u)] = depth + 1;
          next.push_back(u);
          bfs_order.push_back(u);
        }
      }
    }
    frontier = std::move(next);
    ++depth;
  }
  // Vertices in other components go to whichever side is smaller later.
  const index_t reached = static_cast<index_t>(bfs_order.size());

  // 2. Partition: first half of the BFS order (by vertex count) = side A.
  const index_t half = std::max<index_t>(1, reached / 2);
  std::vector<int> side(static_cast<std::size_t>(n), 1);  // 1 = B
  for (index_t k = 0; k < half; ++k) {
    side[static_cast<std::size_t>(bfs_order[static_cast<std::size_t>(k)])] = 0;
  }
  for (index_t v = 0; v < n; ++v) {
    if (level[static_cast<std::size_t>(v)] == -1) {
      side[static_cast<std::size_t>(v)] = 1;  // unreached component -> B
    }
  }

  // 3. Vertex separator: vertices of A adjacent to B.  Then greedily shrink:
  //    a separator vertex with no neighbor in B can return to A.
  std::vector<bool> in_sep(static_cast<std::size_t>(n), false);
  for (index_t v = 0; v < n; ++v) {
    if (side[static_cast<std::size_t>(v)] != 0) continue;
    for (index_t u : g.neighbors(v)) {
      if (side[static_cast<std::size_t>(u)] == 1) {
        in_sep[static_cast<std::size_t>(v)] = true;
        break;
      }
    }
  }
  // Refinement sweep: move a separator vertex back to A if all its B-side
  // neighbors are themselves separator vertices (it no longer touches B).
  bool changed = true;
  int sweeps = 0;
  while (changed && sweeps < 4) {
    changed = false;
    ++sweeps;
    for (index_t v = 0; v < n; ++v) {
      if (!in_sep[static_cast<std::size_t>(v)]) continue;
      bool touches_b = false;
      for (index_t u : g.neighbors(v)) {
        if (side[static_cast<std::size_t>(u)] == 1 &&
            !in_sep[static_cast<std::size_t>(u)]) {
          touches_b = true;
          break;
        }
      }
      if (!touches_b) {
        in_sep[static_cast<std::size_t>(v)] = false;
        changed = true;
      }
    }
  }

  Separator s;
  for (index_t v = 0; v < n; ++v) {
    if (in_sep[static_cast<std::size_t>(v)]) {
      s.sep.push_back(v);
    } else if (side[static_cast<std::size_t>(v)] == 0) {
      s.left.push_back(v);
    } else {
      s.right.push_back(v);
    }
  }
  // Degenerate split (one side empty): force a split by vertex count so the
  // recursion always terminates.
  if (s.left.empty() || s.right.empty()) {
    s.left.clear();
    s.right.clear();
    s.sep.clear();
    std::vector<index_t> all(static_cast<std::size_t>(n));
    std::iota(all.begin(), all.end(), index_t{0});
    const std::size_t mid = all.size() / 2;
    s.left.assign(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(mid));
    s.right.assign(all.begin() + static_cast<std::ptrdiff_t>(mid), all.end());
    // Separator = boundary of left touching right.
    std::vector<bool> is_left(static_cast<std::size_t>(n), false);
    for (index_t v : s.left) is_left[static_cast<std::size_t>(v)] = true;
    std::vector<index_t> new_left;
    for (index_t v : s.left) {
      bool boundary = false;
      for (index_t u : g.neighbors(v)) {
        if (!is_left[static_cast<std::size_t>(u)]) {
          boundary = true;
          break;
        }
      }
      if (boundary) {
        s.sep.push_back(v);
      } else {
        new_left.push_back(v);
      }
    }
    s.left = std::move(new_left);
  }
  return s;
}

namespace {

/// Subgraphs of at least this many vertices are dissected as their own
/// task; smaller ones recurse inline inside the task that split them.
constexpr index_t kSpawnCutoff = 2048;

/// A subgraph waiting to be dissected, and where its slice of the output
/// starts.
struct Piece {
  sparse::Graph g;
  std::vector<index_t> ids;  ///< original vertex id of each vertex of g
  std::size_t offset = 0;
};

/// The separator of one dissection: the single-level BFS separator, or the
/// multilevel one when that is balanced and smaller.  Empty when g cannot
/// be split.
Separator choose_separator(const sparse::Graph& g, const NdOptions& opts) {
  const index_t n = g.n();
  Separator s = find_vertex_separator(g);
  if (opts.multilevel && n > opts.multilevel_threshold) {
    // Multilevel shines on irregular graphs; the single-level BFS
    // heuristic is hard to beat on mesh-like ones.  Compute both and keep
    // the smaller balanced separator.
    Separator ml = multilevel_vertex_separator(g);
    auto balanced = [n](const Separator& sep) {
      const std::size_t small = std::min(sep.left.size(), sep.right.size());
      return !sep.sep.empty() &&
             small >= static_cast<std::size_t>(n) / 5;
    };
    if (balanced(ml) && (!balanced(s) || ml.sep.size() < s.sep.size())) {
      s = std::move(ml);
    }
  }
  if (s.sep.empty() || s.left.empty() || s.right.empty()) return {};
  return s;
}

/// One dissection step: orders g (whose vertex v is original vertex
/// ids[v]) into order[offset, offset + g.n()).  A leaf, or a subgraph that
/// cannot be split, is ordered by minimum degree.  Otherwise the separator
/// fills the tail of the slice and the two halves its head, left before
/// right.  A half of at least kSpawnCutoff vertices is appended to
/// `spawned` when that is given; every other half recurses inline.  The
/// slices are fixed by the separator alone, so the order in which pieces
/// run cannot change the result.
void dissect(const sparse::Graph& g, std::span<const index_t> ids,
             std::size_t offset, const NdOptions& opts,
             std::span<index_t> order, std::vector<Piece>* spawned) {
  const index_t n = g.n();
  if (n == 0) return;
  const Separator s =
      n <= opts.leaf_size ? Separator{} : choose_separator(g, opts);
  if (s.sep.empty()) {
    const sparse::Permutation p = minimum_degree(g);
    for (index_t k = 0; k < n; ++k) {
      order[offset + static_cast<std::size_t>(k)] =
          ids[static_cast<std::size_t>(p.old_of_new(k))];
    }
    return;
  }
  std::size_t next = offset + s.left.size() + s.right.size();
  for (index_t v : s.sep) order[next++] = ids[static_cast<std::size_t>(v)];
  std::vector<index_t> scratch;
  for (const std::vector<index_t>* half : {&s.left, &s.right}) {
    Piece piece{g.induced(*half, scratch), {}, offset};
    offset += half->size();
    piece.ids.reserve(half->size());
    for (index_t v : *half) {
      piece.ids.push_back(ids[static_cast<std::size_t>(v)]);
    }
    if (spawned != nullptr && piece.g.n() >= kSpawnCutoff) {
      spawned->push_back(std::move(piece));
    } else {
      dissect(piece.g, piece.ids, piece.offset, opts, order, spawned);
    }
  }
}

}  // namespace

sparse::Permutation nested_dissection(const sparse::Graph& g,
                                      const NdOptions& opts) {
  std::vector<index_t> ids(static_cast<std::size_t>(g.n()));
  std::iota(ids.begin(), ids.end(), index_t{0});
  std::vector<index_t> order(ids.size(), -1);
  // The top dissection runs here.  The halves it spawns run as tasks, one
  // level of the dissection tree per run_graph: a task's own spawns join
  // the next level, and a throwing task cancels the rest of its level and
  // is rethrown by run_graph.
  std::vector<Piece> frontier;
  dissect(g, ids, 0, opts, order, &frontier);
  if (!frontier.empty()) {
    exec::TaskScheduler scheduler;
    while (!frontier.empty()) {
      std::vector<std::vector<Piece>> spawned(frontier.size());
      exec::TaskGraph level;
      for (std::size_t i = 0; i < frontier.size(); ++i) {
        level.add_task("nd_dissect", [&, i] {
          const Piece piece = std::move(frontier[i]);
          dissect(piece.g, piece.ids, piece.offset, opts, order, &spawned[i]);
        });
      }
      scheduler.run_graph(level);
      frontier.clear();
      for (auto& pieces : spawned) {
        for (Piece& piece : pieces) frontier.push_back(std::move(piece));
      }
    }
  }
  return sparse::Permutation(std::move(order));
}

sparse::Permutation nested_dissection(const sparse::SymmetricCsc& a,
                                      const NdOptions& opts) {
  return nested_dissection(sparse::Graph::from_symmetric(a), opts);
}

}  // namespace sparts::ordering
