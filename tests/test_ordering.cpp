// Elimination trees, postorder, and the fill-reducing orderings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <optional>
#include <set>
#include <string>

#include "ordering/etree.hpp"
#include "ordering/mindeg.hpp"
#include "ordering/multilevel.hpp"
#include "ordering/nested_dissection.hpp"
#include "ordering/rcm.hpp"
#include "solver/workloads.hpp"
#include "sparse/generators.hpp"
#include "sparse/permutation.hpp"
#include "symbolic/symbolic.hpp"

namespace sparts::ordering {
namespace {

/// nnz(L) of the matrix under a given ordering.
nnz_t fill_under(const sparse::SymmetricCsc& a, const sparse::Permutation& p) {
  const sparse::SymmetricCsc b = sparse::permute_symmetric(a, p);
  return symbolic::symbolic_cholesky(b).nnz();
}

TEST(Etree, KnownSmallExample) {
  // Arrow matrix: every column connected to the last one.  Tree is a star
  // rooted at n-1.
  sparse::Triplets t(5, 5);
  for (index_t i = 0; i < 5; ++i) t.add(i, i, 4.0);
  for (index_t i = 0; i < 4; ++i) t.add(4, i, -1.0);
  sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  EliminationTree tree = elimination_tree(a);
  for (index_t v = 0; v < 4; ++v) EXPECT_EQ(tree.parent[static_cast<std::size_t>(v)], 4);
  EXPECT_EQ(tree.parent[4], -1);
}

TEST(Etree, TridiagonalIsAChain) {
  sparse::Triplets t(6, 6);
  for (index_t i = 0; i < 6; ++i) t.add(i, i, 4.0);
  for (index_t i = 0; i + 1 < 6; ++i) t.add(i + 1, i, -1.0);
  sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  EliminationTree tree = elimination_tree(a);
  for (index_t v = 0; v + 1 < 6; ++v) {
    EXPECT_EQ(tree.parent[static_cast<std::size_t>(v)], v + 1);
  }
}

TEST(Etree, PostorderIsValid) {
  sparse::SymmetricCsc a = sparse::grid2d(6, 7);
  EliminationTree tree = elimination_tree(a);
  auto order = postorder(tree);
  EXPECT_TRUE(is_postorder(tree, order));
  // A shuffled order is (almost surely) not a postorder.
  auto bad = order;
  std::swap(bad.front(), bad.back());
  EXPECT_FALSE(is_postorder(tree, bad));
}

TEST(Etree, SubtreeSizesSumAtRoots) {
  sparse::SymmetricCsc a = sparse::grid2d(5, 5);
  EliminationTree tree = elimination_tree(a);
  auto sizes = subtree_sizes(tree);
  index_t total = 0;
  for (index_t v = 0; v < tree.n(); ++v) {
    if (tree.parent[static_cast<std::size_t>(v)] == -1) {
      total += sizes[static_cast<std::size_t>(v)];
    }
  }
  EXPECT_EQ(total, tree.n());
}

TEST(Etree, LevelsAndHeight) {
  sparse::SymmetricCsc a = sparse::grid2d(4, 4);
  EliminationTree tree = elimination_tree(a);
  auto levels = tree_levels(tree);
  const index_t h = tree_height(tree);
  EXPECT_GT(h, 0);
  for (index_t v = 0; v < tree.n(); ++v) {
    const index_t p = tree.parent[static_cast<std::size_t>(v)];
    if (p != -1) {
      EXPECT_EQ(levels[static_cast<std::size_t>(v)],
                levels[static_cast<std::size_t>(p)] + 1);
    } else {
      EXPECT_EQ(levels[static_cast<std::size_t>(v)], 0);
    }
  }
}

TEST(Etree, RelabelByPostorderGivesMonotoneParents) {
  sparse::SymmetricCsc a = sparse::grid2d(5, 6);
  EliminationTree tree = elimination_tree(a);
  auto order = postorder(tree);
  EliminationTree re = relabel_tree(tree, order);
  for (index_t v = 0; v < re.n(); ++v) {
    const index_t p = re.parent[static_cast<std::size_t>(v)];
    if (p != -1) EXPECT_GT(p, v);
  }
}

TEST(Rcm, ReducesBandwidthOnGrid) {
  // A randomly permuted grid has large bandwidth; RCM shrinks it.
  sparse::SymmetricCsc a0 = sparse::grid2d(12, 12);
  Rng rng(7);
  std::vector<index_t> shuffled(static_cast<std::size_t>(a0.n()));
  std::iota(shuffled.begin(), shuffled.end(), index_t{0});
  rng.shuffle(shuffled);
  sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, sparse::Permutation(shuffled));

  auto bandwidth = [](const sparse::SymmetricCsc& m) {
    index_t bw = 0;
    for (index_t j = 0; j < m.n(); ++j) {
      for (index_t i : m.col_rows(j)) bw = std::max(bw, i - j);
    }
    return bw;
  };
  const index_t before = bandwidth(a);
  const sparse::Permutation p = rcm(a);
  const index_t after = bandwidth(sparse::permute_symmetric(a, p));
  EXPECT_LT(after, before / 2);
}

TEST(MinimumDegree, ReducesFillVersusNatural) {
  Rng rng(8);
  sparse::SymmetricCsc a0 = sparse::grid2d(12, 12);
  // Shuffle so "natural" is bad.
  std::vector<index_t> shuffled(static_cast<std::size_t>(a0.n()));
  std::iota(shuffled.begin(), shuffled.end(), index_t{0});
  rng.shuffle(shuffled);
  sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, sparse::Permutation(shuffled));

  const nnz_t natural = fill_under(a, sparse::Permutation(a.n()));
  const nnz_t md = fill_under(a, minimum_degree(a));
  EXPECT_LT(md, natural);
}

TEST(NestedDissection, GeometricOrderingIsAPermutation) {
  const sparse::Permutation p = nested_dissection_grid2d(9, 7);
  EXPECT_EQ(p.n(), 63);
  const sparse::Permutation q = nested_dissection_grid3d(4, 5, 3);
  EXPECT_EQ(q.n(), 60);
}

TEST(NestedDissection, SeparatorDisconnects) {
  sparse::SymmetricCsc a = sparse::grid2d(10, 10);
  sparse::Graph g = sparse::Graph::from_symmetric(a);
  Separator s = find_vertex_separator(g);
  EXPECT_FALSE(s.left.empty());
  EXPECT_FALSE(s.right.empty());
  EXPECT_FALSE(s.sep.empty());
  EXPECT_EQ(static_cast<index_t>(s.left.size() + s.right.size() +
                                 s.sep.size()),
            g.n());
  // No edge may connect left to right.
  std::vector<int> side(static_cast<std::size_t>(g.n()), -1);
  for (index_t v : s.left) side[static_cast<std::size_t>(v)] = 0;
  for (index_t v : s.right) side[static_cast<std::size_t>(v)] = 1;
  for (index_t v : s.left) {
    for (index_t u : g.neighbors(v)) {
      EXPECT_NE(side[static_cast<std::size_t>(u)], 1)
          << "edge " << v << "-" << u << " crosses the separator";
    }
  }
  // A good grid separator is O(sqrt(n)).
  EXPECT_LT(static_cast<index_t>(s.sep.size()), 25);
}

TEST(NestedDissection, GeneralNdBeatsNaturalOnShuffledGrid) {
  Rng rng(9);
  sparse::SymmetricCsc a0 = sparse::grid2d(14, 14);
  std::vector<index_t> shuffled(static_cast<std::size_t>(a0.n()));
  std::iota(shuffled.begin(), shuffled.end(), index_t{0});
  rng.shuffle(shuffled);
  sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, sparse::Permutation(shuffled));
  const nnz_t natural = fill_under(a, sparse::Permutation(a.n()));
  const nnz_t nd = fill_under(a, nested_dissection(a));
  EXPECT_LT(nd, natural);
}

TEST(NestedDissection, GeometricNdNearOptimalFill) {
  // Geometric ND on a k x k grid should give nnz(L) = O(N log N): check
  // the constant stays small versus the natural (banded) ordering's
  // O(N^{1.5}).
  const index_t k = 24;
  sparse::SymmetricCsc a = sparse::grid2d(k, k);
  const nnz_t natural = fill_under(a, sparse::Permutation(a.n()));
  const nnz_t nd = fill_under(a, nested_dissection_grid2d(k, k));
  EXPECT_LT(nd, 3 * natural / 4);
  // Asymptotics: ND fill (O(N log N)) must grow strictly slower than the
  // banded natural ordering's O(N^{3/2}).
  const index_t k2 = 48;
  sparse::SymmetricCsc a2 = sparse::grid2d(k2, k2);
  const nnz_t natural2 = fill_under(a2, sparse::Permutation(a2.n()));
  const nnz_t nd2 = fill_under(a2, nested_dissection_grid2d(k2, k2));
  const double nd_growth = static_cast<double>(nd2) / static_cast<double>(nd);
  const double nat_growth =
      static_cast<double>(natural2) / static_cast<double>(natural);
  EXPECT_LT(nd_growth, 0.8 * nat_growth);
}

TEST(Multilevel, SeparatorIsValidOnLargeGraphs) {
  Rng rng(12);
  for (int which = 0; which < 2; ++which) {
    sparse::SymmetricCsc a = which == 0
                                 ? sparse::grid2d(40, 40)
                                 : sparse::jittered_mesh2d(35, 35, rng);
    sparse::Graph g = sparse::Graph::from_symmetric(a);
    Separator s = multilevel_vertex_separator(g);
    EXPECT_EQ(static_cast<index_t>(s.left.size() + s.right.size() +
                                   s.sep.size()),
              g.n());
    // Sides are balanced and genuinely separated.
    EXPECT_GT(s.left.size(), static_cast<std::size_t>(g.n()) / 5);
    EXPECT_GT(s.right.size(), static_cast<std::size_t>(g.n()) / 5);
    std::vector<int> side(static_cast<std::size_t>(g.n()), -1);
    for (index_t v : s.left) side[static_cast<std::size_t>(v)] = 0;
    for (index_t v : s.right) side[static_cast<std::size_t>(v)] = 1;
    for (index_t v : s.left) {
      for (index_t u : g.neighbors(v)) {
        EXPECT_NE(side[static_cast<std::size_t>(u)], 1);
      }
    }
    // A multilevel separator of a planar-ish graph stays O(sqrt n)-sized.
    EXPECT_LT(s.sep.size(), static_cast<std::size_t>(g.n()) / 8);
  }
}

TEST(Multilevel, ImprovesFillOnIrregularMesh) {
  Rng rng(13);
  sparse::SymmetricCsc a0 = sparse::jittered_mesh2d(50, 50, rng);
  std::vector<index_t> sh(static_cast<std::size_t>(a0.n()));
  std::iota(sh.begin(), sh.end(), index_t{0});
  rng.shuffle(sh);
  sparse::SymmetricCsc a =
      sparse::permute_symmetric(a0, sparse::Permutation(sh));
  NdOptions without;
  without.multilevel = false;
  NdOptions with;
  with.multilevel = true;
  const nnz_t f0 = fill_under(a, nested_dissection(a, without));
  const nnz_t f1 = fill_under(a, nested_dissection(a, with));
  // The best-of-both policy must never lose by more than noise, and on
  // irregular meshes it should win.
  EXPECT_LE(f1, f0);
}

TEST(NestedDissection, HandlesDisconnectedGraphs) {
  // Two disjoint grids in one matrix.
  sparse::Triplets t(18, 18);
  auto add_grid = [&t](index_t base) {
    for (index_t i = 0; i < 9; ++i) t.add(base + i, base + i, 5.0);
    for (index_t y = 0; y < 3; ++y) {
      for (index_t x = 0; x < 3; ++x) {
        const index_t v = base + y * 3 + x;
        if (x + 1 < 3) t.add(v + 1, v, -1.0);
        if (y + 1 < 3) t.add(v + 3, v, -1.0);
      }
    }
  };
  add_grid(0);
  add_grid(9);
  sparse::SymmetricCsc a = sparse::SymmetricCsc::from_triplets(t);
  EXPECT_EQ(nested_dissection(a).n(), 18);
  EXPECT_EQ(rcm(a).n(), 18);
  EXPECT_EQ(minimum_degree(a).n(), 18);
}

/// FNV-1a over the new -> old map, eight bytes per entry.
std::uint64_t perm_hash(const sparse::Permutation& p) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const index_t x : p.perm()) {
    const auto u = static_cast<std::uint64_t>(x);
    for (int b = 0; b < 8; ++b) {
      h ^= (u >> (8 * b)) & 0xff;
      h *= 1099511628211ULL;
    }
  }
  return h;
}

struct GoldenGraph {
  std::string name;
  std::function<sparse::SymmetricCsc()> make;
  std::uint64_t hash;
};

/// Graphs whose nested-dissection permutations are pinned.  The first
/// four spawn halves as tasks three or more levels deep, the next five one
/// or two levels deep; BCSSTK15 and the rest stay below the spawn cutoff.
std::vector<GoldenGraph> golden_graphs() {
  std::vector<GoldenGraph> g = {
      {"grid2d 160x160", [] { return sparse::grid2d(160, 160); },
       0x917b301a2e9a46e3ULL},
      {"grid3d 30^3", [] { return sparse::grid3d(30, 30, 30); },
       0x811fff80321f8367ULL},
      {"jittered 160x160",
       [] {
         Rng rng(7);
         return sparse::jittered_mesh2d(160, 160, rng);
       },
       0x8b467991f9166033ULL},
      {"random_spd 20000",
       [] {
         Rng rng(11);
         return sparse::random_spd(20000, 3, rng);
       },
       0xbccadc318e0ae6cfULL},
      {"grid2d 100x100", [] { return sparse::grid2d(100, 100); },
       0xc61ac525f75ca817ULL},
      {"grid3d 20^3", [] { return sparse::grid3d(20, 20, 20); },
       0x580b1b06e5c2ca1bULL},
      {"jittered 80x80",
       [] {
         Rng rng(7);
         return sparse::jittered_mesh2d(80, 80, rng);
       },
       0x9e70b54a23fdf93bULL},
      {"random_spd 5000",
       [] {
         Rng rng(11);
         return sparse::random_spd(5000, 3, rng);
       },
       0x1d6d01a024dda6e3ULL},
      {"grid2d 9-point 100x80", [] { return sparse::grid2d(100, 80, 9); },
       0x2aa48d2184320e2fULL},
      {"BCSSTK15", [] { return solver::paper_problem("BCSSTK15").matrix; },
       0x30d094f729d09afbULL},
      {"grid2d 31x31", [] { return sparse::grid2d(31, 31); },
       0x00612f96ebdb169eULL},
  };
  // random_spd seeds 1..6, then jittered seeds 1..6.
  const std::uint64_t small[12] = {
      0x7e18cce53b8ed102ULL, 0x5f1165a11897de67ULL, 0x4cc5d911d126004aULL,
      0xdf95b70e5ca1d39fULL, 0xf9def71995020b16ULL, 0x94eaceed7a27c52bULL,
      0x5e0b5406a1b11d7bULL, 0xec7a8f16af66a0a2ULL, 0x48c3453e9783c7fbULL,
      0x4847df547556fc67ULL, 0xd5e4b9f7886c2719ULL, 0xe963e0eec1a80fe6ULL};
  for (int s = 1; s <= 6; ++s) {
    g.push_back({"random_spd seed " + std::to_string(s),
                 [s] {
                   Rng rng(static_cast<std::uint64_t>(s));
                   return sparse::random_spd(100 + 150 * s, 3, rng);
                 },
                 small[s - 1]});
    g.push_back({"jittered seed " + std::to_string(s),
                 [s] {
                   Rng rng(static_cast<std::uint64_t>(100 + s));
                   return sparse::jittered_mesh2d(8 + 3 * s, 7 + 4 * s, rng);
                 },
                 small[s + 5]});
  }
  return g;
}

TEST(NestedDissection, MatchesParentGolden) {
  // Every fill-reducing choice downstream (nnz(L), flops, the maps and the
  // message counts) follows from these permutations, so a speed-up of the
  // ordering must leave them bit-identical.
  for (const GoldenGraph& gg : golden_graphs()) {
    const sparse::Permutation p = nested_dissection(gg.make());
    EXPECT_EQ(perm_hash(p), gg.hash)
        << gg.name << ": got 0x" << std::hex << perm_hash(p);
  }
}

/// Runs `fn` with SPARTS_TASK_WORKERS set to `workers`, then restores the
/// variable as it was.
template <typename Fn>
void with_task_workers(int workers, Fn fn) {
  const char* old = std::getenv("SPARTS_TASK_WORKERS");
  const std::optional<std::string> saved =
      old != nullptr ? std::optional<std::string>(old) : std::nullopt;
  ::setenv("SPARTS_TASK_WORKERS", std::to_string(workers).c_str(), 1);
  fn();
  if (saved) {
    ::setenv("SPARTS_TASK_WORKERS", saved->c_str(), 1);
  } else {
    ::unsetenv("SPARTS_TASK_WORKERS");
  }
}

TEST(NestedDissection, IndependentOfWorkerCount) {
  // Each subgraph fills a slice of the output fixed by its parent's
  // separator, so neither the worker count nor the order in which the
  // halves run can move a vertex.
  Rng rng(7);
  const std::vector<sparse::SymmetricCsc> mats = {
      sparse::grid2d(160, 160), sparse::jittered_mesh2d(160, 160, rng),
      sparse::grid3d(30, 30, 30)};
  for (const sparse::SymmetricCsc& a : mats) {
    const sparse::Permutation ref = nested_dissection(a);
    for (const int workers : {1, 2, 3, 8}) {
      with_task_workers(workers, [&] {
        const sparse::Permutation p = nested_dissection(a);
        EXPECT_TRUE(std::equal(p.perm().begin(), p.perm().end(),
                               ref.perm().begin(), ref.perm().end()))
            << "n = " << a.n() << ", " << workers << " workers";
      });
    }
  }
}

/// Exact minimum degree by brute force: the elimination graph as std::set
/// adjacency, the vertex of least (degree, id) eliminated first.
std::vector<index_t> oracle_minimum_degree(const sparse::Graph& g) {
  const index_t n = g.n();
  std::vector<std::set<index_t>> adj(static_cast<std::size_t>(n));
  for (index_t v = 0; v < n; ++v) {
    for (index_t u : g.neighbors(v)) adj[static_cast<std::size_t>(v)].insert(u);
  }
  std::vector<bool> gone(static_cast<std::size_t>(n), false);
  std::vector<index_t> order;
  for (index_t step = 0; step < n; ++step) {
    index_t best = -1;
    for (index_t v = 0; v < n; ++v) {
      if (gone[static_cast<std::size_t>(v)]) continue;
      if (best == -1 || adj[static_cast<std::size_t>(v)].size() <
                            adj[static_cast<std::size_t>(best)].size()) {
        best = v;
      }
    }
    order.push_back(best);
    gone[static_cast<std::size_t>(best)] = true;
    const std::set<index_t> clique = adj[static_cast<std::size_t>(best)];
    for (index_t u : clique) {
      auto& au = adj[static_cast<std::size_t>(u)];
      au.erase(best);
      for (index_t w : clique) {
        if (w != u) au.insert(w);
      }
    }
    adj[static_cast<std::size_t>(best)].clear();
  }
  return order;
}

/// Random simple graph on n vertices with expected degree about d.
sparse::Graph random_graph(index_t n, double d, Rng& rng) {
  std::vector<std::vector<index_t>> adj(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i) {
    for (index_t j = i + 1; j < n; ++j) {
      if (rng.next_double() * static_cast<double>(n) < d) {
        adj[static_cast<std::size_t>(i)].push_back(j);
        adj[static_cast<std::size_t>(j)].push_back(i);
      }
    }
  }
  std::vector<nnz_t> xadj{0};
  std::vector<index_t> adjncy;
  for (auto& nbrs : adj) {
    std::sort(nbrs.begin(), nbrs.end());
    adjncy.insert(adjncy.end(), nbrs.begin(), nbrs.end());
    xadj.push_back(static_cast<nnz_t>(adjncy.size()));
  }
  return sparse::Graph(n, std::move(xadj), std::move(adjncy));
}

TEST(MinimumDegree, MatchesEliminationGraphOracle) {
  // Graphs of at most 64 vertices take the one-word-per-row path, larger
  // ones the quotient graph; both must be exact minimum degree with the
  // (degree, id) tie-break.
  Rng rng(21);
  for (int trial = 0; trial < 240; ++trial) {
    const index_t n =
        trial < 200 ? 2 + static_cast<index_t>(rng.next_below(63))
                    : 65 + static_cast<index_t>(rng.next_below(236));
    const double d = trial % 10 == 0 ? 0.7 * static_cast<double>(n)
                                     : 1.0 + 7.0 * rng.next_double();
    const sparse::Graph g = random_graph(trial < 8 ? 64 : n, d, rng);
    const sparse::Permutation p = minimum_degree(g);
    const std::vector<index_t> want = oracle_minimum_degree(g);
    EXPECT_TRUE(std::equal(p.perm().begin(), p.perm().end(), want.begin(),
                           want.end()))
        << "trial " << trial << ", n = " << g.n();
  }
}

}  // namespace
}  // namespace sparts::ordering
