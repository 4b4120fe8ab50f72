#include "redist/redist.hpp"

#include "obs/span.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/checks.hpp"
#include "common/error.hpp"
#include "mapping/block_cyclic.hpp"
#include "partrisolve/layout.hpp"
#include "exec/collectives.hpp"

namespace sparts::redist {

namespace {

/// Column indices of the trapezoid owned by grid column gc.
std::vector<index_t> owned_cols(index_t t, index_t bf, index_t qc,
                                index_t gc) {
  std::vector<index_t> cols;
  for (index_t k = 0; k < t; ++k) {
    if ((k / bf) % qc == gc) cols.push_back(k);
  }
  return cols;
}

/// Position indices (trapezoid rows) owned by grid row gr.
std::vector<index_t> owned_rows_2d(index_t ns, index_t bf, index_t qr,
                                   index_t gr) {
  std::vector<index_t> rows;
  for (index_t i = 0; i < ns; ++i) {
    if ((i / bf) % qr == gr) rows.push_back(i);
  }
  return rows;
}

/// The 2-D source and 1-D target distributions of every shared supernode
/// must partition its trapezoid; validating the maps up front turns a
/// misrouted-layout bug into a named diagnostic instead of a silently
/// wrong factor.
void validate_maps(const symbolic::SupernodePartition& part,
                   const mapping::SubcubeMapping& map,
                   const Options& options) {
  SPARTS_CHECK(options.block_2d >= 1 && options.block_1d >= 1,
               "redistribution block sizes must be >= 1");
  SPARTS_VALIDATE_CHEAP(map.check_consistent(part));
  if (checks_at_least(CheckLevel::expensive)) {
    for (index_t s = 0; s < part.num_supernodes(); ++s) {
      const exec::Group& g = map.group[static_cast<std::size_t>(s)];
      if (g.count == 1) continue;
      mapping::validate_block_cyclic(
          mapping::BlockCyclic2d::near_square(g.count, options.block_2d));
      partrisolve::validate_block_cyclic(partrisolve::Layout{
          g.count, options.block_1d, part.height(s), part.width(s)});
    }
  }
}

/// True when the group's first rank holds the whole trapezoid of height
/// `ns` in both distributions: the group is that one rank, or the
/// trapezoid fits in one block of each.  Such a supernode does not move.
bool stays_on_first_rank(const exec::Group& g, index_t ns,
                         const Options& options) {
  return g.count == 1 || ns <= std::min(options.block_2d, options.block_1d);
}

/// Validate the maps, size `out` for the 1-D distribution of the shared
/// supernodes, and pack the shared ones that do not move (the solve reads
/// a single-rank supernode from the factor itself).
void prepack_single_block(const numeric::SupernodalFactor& factor,
                          const mapping::SubcubeMapping& map,
                          const Options& options,
                          partrisolve::DistributedFactor* out) {
  const auto& part = factor.partition();
  validate_maps(part, map, options);
  *out = partrisolve::DistributedFactor(part, map, options.block_1d);
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    const exec::Group& g = map.group[static_cast<std::size_t>(s)];
    if (g.count == 1 || !stays_on_first_rank(g, part.height(s), options)) {
      continue;
    }
    auto& local = out->local_block(g.base, s);
    const auto block = factor.block(s);
    std::copy(block.begin(), block.end(), local.begin());
  }
}

}  // namespace

void redistribute_supernode(exec::Process& proc,
                            const numeric::SupernodalFactor& factor,
                            const mapping::SubcubeMapping& map,
                            const Options& options, index_t s,
                            partrisolve::DistributedFactor* out) {
  const auto& part = factor.partition();
  const index_t w = proc.rank();
  const exec::Group g = map.group[static_cast<std::size_t>(s)];
  if (!g.contains(w) || stays_on_first_rank(g, part.height(s), options)) {
    return;
  }
  SPARTS_TRACE_SPAN(proc, obs::Category::compute, "redist.supernode",
                    static_cast<std::int64_t>(s),
                    static_cast<std::int64_t>(g.count));
  const index_t q = g.count;
  const index_t r = g.local(w);
  const index_t ns = part.height(s);
  const index_t t = part.width(s);
  const auto block = factor.block(s);

  const mapping::BlockCyclic2d grid =
      mapping::BlockCyclic2d::near_square(q, options.block_2d);
  const partrisolve::Layout lay1d{q, options.block_1d, ns, t};
  const index_t gr = r / grid.qc;
  const index_t gc = r % grid.qc;

  // My 2-D piece: rows owned by my grid row, columns by my grid column.
  const std::vector<index_t> my_rows =
      owned_rows_2d(ns, options.block_2d, grid.qr, gr);
  const std::vector<index_t> my_cols =
      owned_cols(t, options.block_2d, grid.qc, gc);

  // Outgoing: for each of my rows, all my columns' values go to the
  // row's 1-D owner.  Canonical order: rows ascending, columns
  // ascending — the receiver reproduces it exactly.
  std::vector<std::vector<real_t>> outgoing(static_cast<std::size_t>(q));
  for (index_t i : my_rows) {
    const index_t dst = lay1d.owner_of(i);
    auto& payload = outgoing[static_cast<std::size_t>(dst)];
    for (index_t k : my_cols) {
      // Entries above the pivot diagonal are structural zeros of the
      // trapezoid; they still move (the storage is dense).
      payload.push_back(block[static_cast<std::size_t>(k * ns + i)]);
    }
  }
  nnz_t pack_words = 0;
  for (const auto& o : outgoing) pack_words += static_cast<nnz_t>(o.size());
  proc.compute_at(static_cast<double>(pack_words), proc.cost().t_mem);

  auto incoming = exec::all_to_all_personalized(
      proc, g, std::move(outgoing), static_cast<int>(8 * s));

  // Receive side: rebuild my 1-D rows and verify against the factor.
  real_t* local = out != nullptr ? out->local_block(w, s).data() : nullptr;
  const index_t nloc = out != nullptr ? out->local_rows(w, s) : 0;
  for (index_t src = 0; src < q; ++src) {
    const index_t src_gr = src / grid.qc;
    const index_t src_gc = src % grid.qc;
    const std::vector<index_t> src_cols =
        owned_cols(t, options.block_2d, grid.qc, src_gc);
    std::size_t cursor = 0;
    const auto& in = incoming[static_cast<std::size_t>(src)];
    for (index_t i = 0; i < ns; ++i) {
      if ((i / options.block_2d) % grid.qr != src_gr) continue;
      if (lay1d.owner_of(i) != r) continue;
      for (index_t k : src_cols) {
        SPARTS_CHECK(cursor < in.size(), "short redistribution payload");
        const real_t expected = block[static_cast<std::size_t>(k * ns + i)];
        SPARTS_CHECK(in[cursor] == expected,
                     "misrouted entry at supernode "
                         << s << " position (" << i << ", " << k << ")");
        if (local != nullptr) {
          local[k * nloc + lay1d.local_of(i)] = in[cursor];
        }
        ++cursor;
      }
    }
    SPARTS_CHECK(cursor == in.size(), "long redistribution payload");
    proc.compute_at(static_cast<double>(cursor), proc.cost().t_mem);
  }
}

Report redistribute_factor(exec::Comm& machine,
                           const numeric::SupernodalFactor& factor,
                           const mapping::SubcubeMapping& map,
                           const Options& options,
                           partrisolve::DistributedFactor* out) {
  const auto& part = factor.partition();
  SPARTS_CHECK(machine.nprocs() == map.p);
  const index_t nsup = part.num_supernodes();
  if (out != nullptr) {
    prepack_single_block(factor, map, options, out);
  } else {
    validate_maps(part, map, options);
  }

  auto spmd = [&](exec::Process& proc) {
    for (index_t s = 0; s < nsup; ++s) {
      redistribute_supernode(proc, factor, map, options, s, out);
    }
  };

  Report report;
  report.stats = machine.run(spmd);
  return report;
}

}  // namespace sparts::redist
