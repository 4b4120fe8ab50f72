#include "sparse/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

#include "common/error.hpp"

namespace sparts::sparse {

namespace {

/// Laplacian-style SPD values: each off-diagonal edge contributes -1 and
/// +1 to both endpoint diagonals; `shift` keeps the matrix strictly PD.
SymmetricCsc laplacian_from_edges(index_t n,
                                  const std::vector<std::pair<index_t, index_t>>& edges,
                                  real_t shift) {
  Triplets t(n, n);
  std::vector<real_t> diag(static_cast<std::size_t>(n), shift);
  for (auto [u, v] : edges) {
    SPARTS_DCHECK(u != v);
    t.add(std::max(u, v), std::min(u, v), -1.0);
    diag[static_cast<std::size_t>(u)] += 1.0;
    diag[static_cast<std::size_t>(v)] += 1.0;
  }
  for (index_t i = 0; i < n; ++i) {
    t.add(i, i, diag[static_cast<std::size_t>(i)]);
  }
  return SymmetricCsc::from_triplets(t);
}

/// Expand a scalar mesh into a multi-DOF system: dense dof x dof coupling
/// within each vertex and across each edge.
SymmetricCsc expand_dof(index_t n,
                        const std::vector<std::pair<index_t, index_t>>& edges,
                        index_t dof, real_t shift) {
  SPARTS_CHECK(dof >= 1);
  std::vector<std::pair<index_t, index_t>> out;
  out.reserve(edges.size() * static_cast<std::size_t>(dof * dof) +
              static_cast<std::size_t>(n * dof * (dof - 1) / 2));
  // Intra-vertex coupling.
  for (index_t v = 0; v < n; ++v) {
    for (index_t a = 0; a < dof; ++a) {
      for (index_t b = a + 1; b < dof; ++b) {
        out.emplace_back(v * dof + a, v * dof + b);
      }
    }
  }
  // Inter-vertex coupling: the full dof x dof block per mesh edge.
  for (auto [u, v] : edges) {
    for (index_t a = 0; a < dof; ++a) {
      for (index_t b = 0; b < dof; ++b) {
        out.emplace_back(u * dof + a, v * dof + b);
      }
    }
  }
  return laplacian_from_edges(n * dof, out, shift);
}

std::vector<std::pair<index_t, index_t>> grid2d_edges(index_t kx, index_t ky,
                                                      int stencil) {
  SPARTS_CHECK(kx > 0 && ky > 0);
  SPARTS_CHECK(stencil == 5 || stencil == 9, "stencil must be 5 or 9");
  auto id = [kx](index_t x, index_t y) { return y * kx + x; };
  std::vector<std::pair<index_t, index_t>> edges;
  edges.reserve(static_cast<std::size_t>(kx * ky) * (stencil == 5 ? 2 : 4));
  for (index_t y = 0; y < ky; ++y) {
    for (index_t x = 0; x < kx; ++x) {
      if (x + 1 < kx) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < ky) edges.emplace_back(id(x, y), id(x, y + 1));
      if (stencil == 9) {
        if (x + 1 < kx && y + 1 < ky)
          edges.emplace_back(id(x, y), id(x + 1, y + 1));
        if (x > 0 && y + 1 < ky) edges.emplace_back(id(x, y), id(x - 1, y + 1));
      }
    }
  }
  return edges;
}

std::vector<std::pair<index_t, index_t>> grid3d_edges(index_t kx, index_t ky,
                                                      index_t kz,
                                                      int stencil) {
  SPARTS_CHECK(kx > 0 && ky > 0 && kz > 0);
  SPARTS_CHECK(stencil == 7 || stencil == 27, "stencil must be 7 or 27");
  auto id = [kx, ky](index_t x, index_t y, index_t z) {
    return (z * ky + y) * kx + x;
  };
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t z = 0; z < kz; ++z) {
    for (index_t y = 0; y < ky; ++y) {
      for (index_t x = 0; x < kx; ++x) {
        if (stencil == 7) {
          if (x + 1 < kx) edges.emplace_back(id(x, y, z), id(x + 1, y, z));
          if (y + 1 < ky) edges.emplace_back(id(x, y, z), id(x, y + 1, z));
          if (z + 1 < kz) edges.emplace_back(id(x, y, z), id(x, y, z + 1));
        } else {
          for (index_t dz = -1; dz <= 1; ++dz) {
            for (index_t dy = -1; dy <= 1; ++dy) {
              for (index_t dx = -1; dx <= 1; ++dx) {
                if (dx == 0 && dy == 0 && dz == 0) continue;
                const index_t nx = x + dx, ny = y + dy, nz = z + dz;
                if (nx < 0 || nx >= kx || ny < 0 || ny >= ky || nz < 0 ||
                    nz >= kz) {
                  continue;
                }
                const index_t a = id(x, y, z), b = id(nx, ny, nz);
                if (a < b) edges.emplace_back(a, b);
              }
            }
          }
        }
      }
    }
  }
  return edges;
}

}  // namespace

SymmetricCsc grid2d(index_t kx, index_t ky, int stencil, real_t shift) {
  return laplacian_from_edges(kx * ky, grid2d_edges(kx, ky, stencil), shift);
}

SymmetricCsc grid2d_dof(index_t kx, index_t ky, int stencil, index_t dof,
                        real_t shift) {
  return expand_dof(kx * ky, grid2d_edges(kx, ky, stencil), dof, shift);
}

SymmetricCsc grid3d_dof(index_t kx, index_t ky, index_t kz, int stencil,
                        index_t dof, real_t shift) {
  return expand_dof(kx * ky * kz, grid3d_edges(kx, ky, kz, stencil), dof,
                    shift);
}

SymmetricCsc grid3d(index_t kx, index_t ky, index_t kz, int stencil,
                    real_t shift) {
  return laplacian_from_edges(kx * ky * kz,
                              grid3d_edges(kx, ky, kz, stencil), shift);
}

SymmetricCsc random_spd(index_t n, index_t avg_off_diag, Rng& rng) {
  SPARTS_CHECK(n > 0 && avg_off_diag >= 0);
  std::set<std::pair<index_t, index_t>> seen;
  std::vector<std::pair<index_t, index_t>> edges;
  const nnz_t target = static_cast<nnz_t>(n) * avg_off_diag / 2;
  // The rejection loop below would spin forever past the complete graph.
  const nnz_t pairs = static_cast<nnz_t>(n) * (n - 1) / 2;
  if (target > pairs) {
    throw InvalidArgument("random_spd: n * avg_off_diag / 2 = " +
                          std::to_string(target) + " off-diagonal pairs, but " +
                          std::to_string(n) + " vertices have only " +
                          std::to_string(pairs));
  }
  while (static_cast<nnz_t>(edges.size()) < target) {
    index_t i = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    index_t j = static_cast<index_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (i == j) continue;
    auto key = std::minmax(i, j);
    if (seen.insert({key.first, key.second}).second) {
      edges.emplace_back(key.first, key.second);
    }
  }
  // Random positive weights; diagonal dominance guarantees SPD.
  Triplets t(n, n);
  std::vector<real_t> diag(static_cast<std::size_t>(n), 1.0);
  for (auto [u, v] : edges) {
    const real_t w = -rng.uniform(0.1, 1.0);
    t.add(std::max(u, v), std::min(u, v), w);
    diag[static_cast<std::size_t>(u)] += std::abs(w);
    diag[static_cast<std::size_t>(v)] += std::abs(w);
  }
  for (index_t i = 0; i < n; ++i) t.add(i, i, diag[static_cast<std::size_t>(i)]);
  return SymmetricCsc::from_triplets(t);
}

SymmetricCsc random_symmetric_dd(index_t n, index_t avg_off_diag,
                                 double negative_fraction, Rng& rng) {
  SymmetricCsc a = random_spd(n, avg_off_diag, rng);
  auto vals = a.values();
  auto colptr = a.colptr();
  for (index_t j = 0; j < n; ++j) {
    if (rng.next_double() < negative_fraction) {
      vals[static_cast<std::size_t>(colptr[static_cast<std::size_t>(j)])] *=
          -1.0;
    }
  }
  return a;
}

SymmetricCsc jittered_mesh2d(index_t kx, index_t ky, Rng& rng) {
  // Start from a 5-point grid and randomly add a diagonal to ~half the
  // cells, emulating an unstructured triangulation.
  SPARTS_CHECK(kx > 1 && ky > 1);
  const index_t n = kx * ky;
  auto id = [kx](index_t x, index_t y) { return y * kx + x; };
  std::vector<std::pair<index_t, index_t>> edges;
  for (index_t y = 0; y < ky; ++y) {
    for (index_t x = 0; x < kx; ++x) {
      if (x + 1 < kx) edges.emplace_back(id(x, y), id(x + 1, y));
      if (y + 1 < ky) edges.emplace_back(id(x, y), id(x, y + 1));
      if (x + 1 < kx && y + 1 < ky) {
        if (rng.next_below(2) == 0) {
          edges.emplace_back(id(x, y), id(x + 1, y + 1));
        } else {
          edges.emplace_back(id(x + 1, y), id(x, y + 1));
        }
      }
    }
  }
  return laplacian_from_edges(n, edges, 1e-2);
}

SymmetricCsc wide_flat(index_t blocks, index_t block_len) {
  SPARTS_CHECK(blocks >= 1 && block_len >= 1);
  const index_t n = blocks * block_len;
  Triplets t(n, n);
  for (index_t b = 0; b < blocks; ++b) {
    const index_t base = b * block_len;
    for (index_t i = 0; i < block_len; ++i) {
      t.add(base + i, base + i, 4.0);
      if (i + 1 < block_len) t.add(base + i + 1, base + i, -1.0);
    }
  }
  return SymmetricCsc::from_triplets(t);
}

SymmetricCsc figure1_matrix() {
  // Paper Figure 1: a 19-node matrix whose elimination tree (with natural
  // ordering) is a balanced hierarchy: leaf supernodes {0,1,2}, {3,4,5},
  // {9,10,11}, {12,13,14} feeding separators {6,7,8} / {15,16,17}-style
  // structure, topped by the root supernode.  We reproduce the structure of
  // a 2-level nested dissection of a small 2-D mesh, which is exactly what
  // the figure depicts: 4 leaf subtrees on 8 processors, root supernode
  // shared by all.  Concretely we use a 2-level ND ordering of grid2d(4, 4)
  // extended with a 3-node root — constructed explicitly for determinism.
  Triplets t(19, 19);
  auto edge = [&t](index_t i, index_t j) { t.add(std::max(i, j), std::min(i, j), -1.0); };
  // Four leaf cliques (paths of 3): {0,1,2}, {3,4,5}, {9,10,11}, {12,13,14}.
  for (index_t base : {0, 3, 9, 12}) {
    edge(base, base + 1);
    edge(base + 1, base + 2);
  }
  // Left separator {6,7,8} couples leaf groups {0..2} and {3..5}.
  edge(2, 6); edge(5, 6); edge(6, 7); edge(7, 8); edge(0, 7); edge(3, 8);
  // Right separator {15,16,17} couples {9..11} and {12..14}.
  edge(11, 15); edge(14, 15); edge(15, 16); edge(16, 17); edge(9, 16);
  edge(12, 17);
  // Root node 18 couples both halves.
  edge(8, 18); edge(17, 18); edge(7, 18); edge(16, 18);
  // Diagonal: degree + 1 (assembled afterwards in from_triplets pass).
  std::vector<real_t> diag(19, 1.0);
  SymmetricCsc pat = SymmetricCsc::from_triplets(t);
  // Count degrees from structure and rebuild with SPD values.
  Triplets t2(19, 19);
  for (index_t j = 0; j < 19; ++j) {
    auto rows = pat.col_rows(j);
    for (std::size_t k = 1; k < rows.size(); ++k) {
      t2.add(rows[k], j, -1.0);
      diag[static_cast<std::size_t>(rows[k])] += 1.0;
      diag[static_cast<std::size_t>(j)] += 1.0;
    }
  }
  for (index_t i = 0; i < 19; ++i) t2.add(i, i, diag[static_cast<std::size_t>(i)]);
  return SymmetricCsc::from_triplets(t2);
}

std::vector<real_t> random_rhs(index_t n, index_t m, Rng& rng) {
  std::vector<real_t> b(static_cast<std::size_t>(n * m));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

}  // namespace sparts::sparse
