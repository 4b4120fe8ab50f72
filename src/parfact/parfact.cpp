#include "parfact/parfact.hpp"

#include "obs/span.hpp"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "common/finite.hpp"
#include "dense/kernels.hpp"
#include "mapping/block_cyclic.hpp"
#include "sparse/validate.hpp"
#include "ordering/etree.hpp"
#include "partrisolve/layout.hpp"
#include "exec/collectives.hpp"
#include "exec/reliable.hpp"

namespace sparts::parfact {

namespace {

using partrisolve::Layout;

/// Tag streams.  Every in-flight message must have a unique
/// (src, dst, tag): extend-add packets are one-shot per (child, edge),
/// but the panel-loop collectives repeat over panels — and the column
/// all-gather additionally over ring steps — so those indices are folded
/// into the tag.  Ranks derive identical tags from shared arithmetic.
struct TagScheme {
  index_t panel_span;  ///< tags reserved per panel (diag, rowbcast, ring)
  index_t stride;      ///< tags reserved per supernode

  TagScheme(const symbolic::SupernodePartition& part, index_t b2d,
            index_t p) {
    index_t max_panels = 1;
    for (index_t s = 0; s < part.num_supernodes(); ++s) {
      max_panels = std::max(max_panels, (part.width(s) + b2d - 1) / b2d);
    }
    panel_span = 2 + p;  // diag + rowbcast + up to p-1 all-gather steps
    stride = 1 + max_panels * panel_span;
  }

  int extend_add(index_t c) const { return static_cast<int>(stride * c); }
  int diag(index_t s, index_t panel) const {
    return static_cast<int>(stride * s + 1 + panel * panel_span);
  }
  int rowbcast(index_t s, index_t panel) const {
    return diag(s, panel) + 1;
  }
  /// Base tag; allgather() consumes base .. base + group size - 2.
  int colgather(index_t s, index_t panel) const {
    return diag(s, panel) + 2;
  }
};

/// The 2-D geometry of one supernode's front on its processor group.
struct FrontGeometry {
  exec::Group group;
  mapping::BlockCyclic2d grid;  ///< qr x qc, block b2d
  Layout row_layout;            ///< positions over grid rows
  Layout col_layout;            ///< positions over grid columns
  index_t ns = 0;
  index_t t = 0;

  index_t qr() const { return grid.qr; }
  index_t qc() const { return grid.qc; }
  index_t grid_row(index_t world) const { return group.local(world) / qc(); }
  index_t grid_col(index_t world) const { return group.local(world) % qc(); }
  index_t world_of(index_t gr, index_t gc) const {
    return group.world(gr * qc() + gc);
  }
  index_t owner_world(index_t i, index_t j) const {
    return world_of(row_layout.owner_of(i), col_layout.owner_of(j));
  }
  /// Number of positions < x owned by grid row gr.
  index_t rows_below(index_t gr, index_t x) const {
    index_t count = 0;
    for (index_t blk = gr; blk * row_layout.b < x; blk += qr()) {
      count += std::min(row_layout.block_end(blk), x) -
               row_layout.block_begin(blk);
    }
    return count;
  }
};

FrontGeometry make_geometry(const exec::Group& g, index_t ns, index_t t,
                            index_t b2d) {
  FrontGeometry geo;
  geo.group = g;
  geo.grid = mapping::BlockCyclic2d::near_square(g.count, b2d);
  geo.row_layout = Layout{geo.grid.qr, b2d, ns, t};
  geo.col_layout = Layout{geo.grid.qc, b2d, ns, t};
  geo.ns = ns;
  geo.t = t;
  return geo;
}

/// One rank's part of a front: local dense matrix of its grid-row rows by
/// its grid-column columns (only the lower triangle of the global front is
/// maintained).
struct LocalFront {
  index_t lr = 0;
  index_t lc = 0;
  std::vector<real_t> data;  ///< column-major, ld = lr

  real_t& at(index_t li, index_t lj) {
    return data[static_cast<std::size_t>(lj * lr + li)];
  }
};

}  // namespace

Report parallel_multifrontal(exec::Comm& machine,
                             const sparse::SymmetricCsc& a,
                             const symbolic::SupernodePartition& part,
                             const mapping::SubcubeMapping& map,
                             numeric::SupernodalFactor& out,
                             const Options& options) {
  SPARTS_CHECK(machine.nprocs() == map.p);
  SPARTS_CHECK(part.n() == a.n());
  SPARTS_VALIDATE_CHEAP(map.check_consistent(part));
  SPARTS_VALIDATE_EXPENSIVE(part.check_consistent());
  SPARTS_VALIDATE_EXPENSIVE(sparse::validate_symmetric_csc(a));
  out = numeric::SupernodalFactor(part);

  const index_t nsup = part.num_supernodes();
  const index_t b2d = options.block_2d;
  const TagScheme tags(part, b2d, map.p);
  auto children = ordering::tree_children(part.stree);

  // Position of each child's below-rows inside the parent front.
  std::vector<std::vector<index_t>> parent_pos(
      static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    const index_t parent = part.stree.parent[static_cast<std::size_t>(s)];
    if (parent == -1) continue;
    const auto rows = part.row_indices(s);
    const auto prows = part.row_indices(parent);
    const index_t t = part.width(s);
    auto& pp = parent_pos[static_cast<std::size_t>(s)];
    pp.resize(rows.size() - static_cast<std::size_t>(t));
    for (std::size_t k = 0; k < pp.size(); ++k) {
      const auto it = std::lower_bound(prows.begin(), prows.end(),
                                       rows[static_cast<std::size_t>(t) + k]);
      SPARTS_CHECK(it != prows.end() &&
                   *it == rows[static_cast<std::size_t>(t) + k]);
      pp[k] = static_cast<index_t>(it - prows.begin());
    }
  }

  // Per-rank retained fronts, erased once the parent consumed them.
  std::vector<std::unordered_map<index_t, LocalFront>> rank_fronts(
      static_cast<std::size_t>(map.p));

  auto spmd = [&](exec::Process& proc) {
    const index_t w = proc.rank();
    auto& fronts = rank_fronts[static_cast<std::size_t>(w)];
    const exec::ProgressNotes progress(proc);

    // Every rank walks the supernodes in ascending id, which puts each
    // child before its parent (the walk-order rule, docs/taskdag.md), and
    // factors the ones whose group it belongs to.
    for (index_t s = 0; s < nsup; ++s) {
      const exec::Group g = map.group[static_cast<std::size_t>(s)];
      if (!g.contains(w)) continue;
      progress.note("fact supernode", s);
      SPARTS_TRACE_SPAN(proc, obs::Category::compute, "fact.supernode",
                        static_cast<std::int64_t>(s),
                        static_cast<std::int64_t>(g.count));
      const index_t ns = part.height(s);
      const index_t t = part.width(s);
      const FrontGeometry geo = make_geometry(g, ns, t, b2d);
      const index_t gr = geo.grid_row(w);
      const index_t gc = geo.grid_col(w);

      LocalFront front;
      front.lr = geo.row_layout.local_count(gr);
      front.lc = geo.col_layout.local_count(gc);
      front.data.assign(static_cast<std::size_t>(front.lr * front.lc), 0.0);

      // --- Assemble original matrix entries of the pivot columns. ---
      const auto rows = part.row_indices(s);
      const index_t j0 = part.first_col[static_cast<std::size_t>(s)];
      for (index_t k = 0; k < t; ++k) {
        if (geo.col_layout.owner_of(k) != gc) continue;
        const index_t lj = geo.col_layout.local_of(k);
        auto arows = a.col_rows(j0 + k);
        auto avals = a.col_values(j0 + k);
        for (std::size_t z = 0; z < arows.size(); ++z) {
          const auto it =
              std::lower_bound(rows.begin(), rows.end(), arows[z]);
          SPARTS_DCHECK(it != rows.end() && *it == arows[z]);
          const index_t pos = static_cast<index_t>(it - rows.begin());
          if (geo.row_layout.owner_of(pos) != gr) continue;
          front.at(geo.row_layout.local_of(pos), lj) += avals[z];
        }
      }

      // --- Extend-add the children's Schur complements. ---
      for (index_t c : children[static_cast<std::size_t>(s)]) {
        const exec::Group cg = map.group[static_cast<std::size_t>(c)];
        const index_t cns = part.height(c);
        const index_t ct = part.width(c);
        const FrontGeometry cgeo = make_geometry(cg, cns, ct, b2d);
        const auto& pp = parent_pos[static_cast<std::size_t>(c)];

        // Canonical enumeration of the trailing entries owned by one child
        // rank: columns ascending, rows ascending within the column.
        auto enumerate = [&](index_t cgr, index_t cgc, auto&& visit) {
          for (index_t j = ct; j < cns; ++j) {
            if (cgeo.col_layout.owner_of(j) != cgc) continue;
            const index_t pj = pp[static_cast<std::size_t>(j - ct)];
            for (index_t i = j; i < cns; ++i) {
              if (cgeo.row_layout.owner_of(i) != cgr) continue;
              const index_t pi = pp[static_cast<std::size_t>(i - ct)];
              visit(i, j, pi, pj);
            }
          }
        };

        // Send side: I hold part of the child's front.
        if (cg.contains(w)) {
          auto fit = fronts.find(c);
          SPARTS_CHECK(fit != fronts.end(), "missing child front");
          LocalFront& cf = fit->second;
          const index_t cgr = cgeo.grid_row(w);
          const index_t cgc = cgeo.grid_col(w);
          std::map<index_t, std::vector<real_t>> buckets;
          enumerate(cgr, cgc, [&](index_t i, index_t j, index_t pi,
                                  index_t pj) {
            const real_t v = cf.at(cgeo.row_layout.local_of(i),
                                   cgeo.col_layout.local_of(j));
            const index_t dst = geo.owner_world(pi, pj);
            if (dst == w) {
              front.at(geo.row_layout.local_of(pi),
                       geo.col_layout.local_of(pj)) += v;
            } else {
              buckets[dst].push_back(v);
            }
          });
          for (auto& [dst, values] : buckets) {
            proc.send_values<real_t>(dst, tags.extend_add(c), values);
          }
          nnz_t moved = 0;
          for (auto& [dst, values] : buckets) {
            moved += static_cast<nnz_t>(values.size());
          }
          proc.compute_at(static_cast<double>(moved), proc.cost().t_mem);
          fronts.erase(fit);
        }

        // Receive side: collect entries destined for me from every child
        // rank (the enumeration tells me exactly what each one sends).
        for (index_t crank = 0; crank < cg.count; ++crank) {
          const index_t src = cg.world(crank);
          if (src == w) continue;
          const index_t cgr2 = crank / cgeo.qc();
          const index_t cgc2 = crank % cgeo.qc();
          std::vector<std::pair<index_t, index_t>> mine;
          enumerate(cgr2, cgc2,
                    [&](index_t, index_t, index_t pi, index_t pj) {
                      if (geo.owner_world(pi, pj) == w) {
                        mine.emplace_back(pi, pj);
                      }
                    });
          if (mine.empty()) continue;
          auto values = proc.recv_values<real_t>(src, tags.extend_add(c));
          SPARTS_CHECK(values.size() == mine.size(),
                       "extend-add payload size mismatch");
          check_finite_cheap(values, "parfact extend-add payload", c);
          for (std::size_t z = 0; z < mine.size(); ++z) {
            front.at(geo.row_layout.local_of(mine[z].first),
                     geo.col_layout.local_of(mine[z].second)) += values[z];
          }
          proc.compute_at(static_cast<double>(values.size()),
                          proc.cost().t_mem);
        }
      }

      // --- Partial dense factorization of the pivot block. ---
      if (g.count == 1) {
        // Local fast path: classic partial Cholesky + Schur update.
        proc.compute(static_cast<double>(dense::panel_cholesky(
                         ns, t, front.data.data(), ns)),
                     exec::FlopKind::blas3);
        const index_t below = ns - t;
        if (below > 0) {
          dense::panel_syrk(below, below, t, front.data.data() + t, ns,
                            front.data.data() + t, ns,
                            front.data.data() +
                                static_cast<std::size_t>(t) * ns + t,
                            ns, /*lower_only=*/true);
          proc.compute(static_cast<double>(dense::syrk_flops(
                           below, below, t, /*lower_only=*/true)),
                       exec::FlopKind::blas3);
        }
      } else if (ns > b2d || (gr == 0 && gc == 0)) {
        // A front that fits in one block sits whole on grid rank (0, 0),
        // which factors its one panel alone: no broadcast or all-gather.
        // The other ranks keep an empty front.
        const bool spread = ns > b2d;
        const exec::Group col_group{g.base + gc, geo.qr(), geo.qc()};
        const exec::Group row_group{g.base + gr * geo.qc(), geo.qc(), 1};

        for (index_t p0 = 0; p0 < t; p0 += b2d) {
          const index_t bp = std::min(b2d, t - p0);
          const index_t p1 = p0 + bp;
          const index_t panel_gc = geo.col_layout.owner_of(p0);
          const index_t panel_gr = geo.row_layout.owner_of(p0);

          // Step 1: diagonal block Cholesky + column broadcast.
          std::vector<real_t> diag(static_cast<std::size_t>(bp * bp));
          if (gc == panel_gc && gr == panel_gr) {
            const index_t li = geo.row_layout.local_of(p0);
            const index_t lj = geo.col_layout.local_of(p0);
            proc.compute(
                static_cast<double>(dense::panel_cholesky(
                    bp, bp, &front.at(li, lj), front.lr)),
                exec::FlopKind::blas3);
            for (index_t cjj = 0; cjj < bp; ++cjj) {
              for (index_t cii = 0; cii < bp; ++cii) {
                diag[static_cast<std::size_t>(cjj * bp + cii)] =
                    front.at(li + cii, lj + cjj);
              }
            }
          }
          if (spread && gc == panel_gc && geo.qr() > 1) {
            exec::broadcast_from(proc, col_group, panel_gr, diag,
                                   tags.diag(s, p0 / b2d));
          }

          // Step 2: row-panel solves on the panel's grid column, then
          // broadcast of each row piece along its grid row.
          const index_t below_count = geo.rows_below(gr, p1);
          const index_t m_rows = front.lr - below_count;
          std::vector<real_t> rowpiece(
              static_cast<std::size_t>(m_rows * bp));
          if (gc == panel_gc) {
            if (m_rows > 0) {
              const index_t lj = geo.col_layout.local_of(p0);
              proc.compute(static_cast<double>(dense::panel_trsm_right_lt(
                               m_rows, bp, diag.data(), bp,
                               &front.at(below_count, lj), front.lr)),
                           exec::FlopKind::blas3);
              for (index_t cjj = 0; cjj < bp; ++cjj) {
                for (index_t cii = 0; cii < m_rows; ++cii) {
                  rowpiece[static_cast<std::size_t>(cjj * m_rows + cii)] =
                      front.at(below_count + cii, lj + cjj);
                }
              }
            }
          }
          if (spread && geo.qc() > 1) {
            exec::broadcast_from(proc, row_group, panel_gc, rowpiece,
                                   tags.rowbcast(s, p0 / b2d));
          }

          // Step 3: all-gather, along the grid column, of the sub-pieces
          // whose positions this grid column owns column-wise.
          // Positions of my grid row's trailing rows, ascending:
          std::vector<index_t> my_row_positions;
          my_row_positions.reserve(static_cast<std::size_t>(m_rows));
          for (index_t blk = gr; blk < geo.row_layout.num_blocks();
               blk += geo.qr()) {
            for (index_t i = std::max(geo.row_layout.block_begin(blk), p1);
                 i < geo.row_layout.block_end(blk); ++i) {
              my_row_positions.push_back(i);
            }
          }
          std::vector<real_t> contrib;
          std::vector<index_t> contrib_positions;
          for (std::size_t z = 0; z < my_row_positions.size(); ++z) {
            const index_t i = my_row_positions[z];
            if (geo.col_layout.owner_of(i) != gc) continue;
            contrib_positions.push_back(i);
            for (index_t cjj = 0; cjj < bp; ++cjj) {
              contrib.push_back(rowpiece[static_cast<std::size_t>(
                  cjj * m_rows + static_cast<index_t>(z))]);
            }
          }
          std::vector<std::vector<real_t>> gathered;
          if (spread && geo.qr() > 1) {
            gathered = exec::allgather(proc, col_group, std::move(contrib),
                                         tags.colgather(s, p0 / b2d));
          } else {
            gathered.push_back(std::move(contrib));
          }
          // colpiece: L(j, panel) for each of my local trailing columns.
          std::vector<real_t> colpiece(
              static_cast<std::size_t>(front.lc * bp), 0.0);
          for (index_t src_gr = 0;
               src_gr < static_cast<index_t>(gathered.size()); ++src_gr) {
            const auto& data = gathered[static_cast<std::size_t>(src_gr)];
            std::size_t cursor = 0;
            for (index_t blk = src_gr; blk < geo.row_layout.num_blocks();
                 blk += geo.qr()) {
              for (index_t i = std::max(geo.row_layout.block_begin(blk), p1);
                   i < geo.row_layout.block_end(blk); ++i) {
                if (geo.col_layout.owner_of(i) != gc) continue;
                const index_t lj = geo.col_layout.local_of(i);
                for (index_t cjj = 0; cjj < bp; ++cjj) {
                  SPARTS_CHECK(cursor < data.size(),
                               "colpiece stream underflow");
                  colpiece[static_cast<std::size_t>(cjj * front.lc + lj)] =
                      data[cursor++];
                }
              }
            }
            SPARTS_CHECK(cursor == data.size(), "colpiece stream overflow");
          }

          // Step 4: local trailing update
          //   F(i, j) -= L(i, panel) * L(j, panel)^T,  i >= j >= p1.
          for (index_t jb = gc; jb < geo.col_layout.num_blocks();
               jb += geo.qc()) {
            const index_t jend = geo.col_layout.block_end(jb);
            const index_t jstart =
                std::max(geo.col_layout.block_begin(jb), p1);
            if (jstart >= jend) continue;
            const index_t lenj = jend - jstart;
            const index_t lj = geo.col_layout.local_of(jstart);
            for (index_t ib = gr; ib < geo.row_layout.num_blocks();
                 ib += geo.qr()) {
              if (geo.row_layout.block_end(ib) <= jstart) continue;
              const index_t istart =
                  std::max(geo.row_layout.block_begin(ib), p1);
              // Only blocks on/below the diagonal block row hold lower-
              // triangle entries.
              if (istart < jstart) continue;
              const bool diagonal_block = istart == jstart;
              const index_t leni = geo.row_layout.block_end(ib) - istart;
              const index_t li_local = geo.row_layout.local_of(istart);
              // A-piece rows istart.. are at rowpiece offset
              // (local row - below_count).
              const real_t* apiece =
                  rowpiece.data() + (li_local - below_count);
              dense::panel_syrk(leni, lenj, bp, apiece, m_rows,
                                colpiece.data() + lj, front.lc,
                                &front.at(li_local, lj), front.lr,
                                /*lower_only=*/diagonal_block);
              proc.compute(static_cast<double>(dense::syrk_flops(
                               leni, lenj, bp, diagonal_block)),
                           exec::FlopKind::blas3);
            }
          }
        }
      }

      // --- Write my part of the factored pivot columns. ---
      auto block = out.block(s);
      for (index_t k = 0; k < t; ++k) {
        if (geo.col_layout.owner_of(k) != gc) continue;
        const index_t lj = geo.col_layout.local_of(k);
        for (index_t blk = gr; blk < geo.row_layout.num_blocks();
             blk += geo.qr()) {
          for (index_t i = std::max(geo.row_layout.block_begin(blk), k);
               i < geo.row_layout.block_end(blk); ++i) {
            block[static_cast<std::size_t>(k * ns + i)] =
                front.at(geo.row_layout.local_of(i), lj);
          }
        }
      }

      // Retain the front if a parent will consume its Schur complement.
      if (part.stree.parent[static_cast<std::size_t>(s)] != -1 && ns > t) {
        fronts.emplace(s, std::move(front));
      }
    }
  };

  return {machine.run(spmd)};
}

}  // namespace sparts::parfact
