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
  // The 2-D map deals the trapezoid's positions block-cyclically over the
  // grid's rows and its pivot columns over the grid's columns: one Layout
  // each, as in parfact.
  const partrisolve::Layout rows2d{grid.qr, options.block_2d, ns, t};
  const partrisolve::Layout cols2d{grid.qc, options.block_2d, t, t};
  const partrisolve::Layout lay1d{q, options.block_1d, ns, t};
  const index_t gr = r / grid.qc;
  const index_t gc = r % grid.qc;
  // Calls f(k) for each pivot column k of grid column c, ascending.
  auto for_cols = [&](index_t c, auto&& f) {
    cols2d.for_owned_runs(c, 0, t, [&](index_t k0, index_t k1) {
      for (index_t k = k0; k < k1; ++k) f(k);
    });
  };

  // Outgoing: my 2-D piece is my grid row's positions by my grid column's
  // columns.  For each of my rows, all my columns' values go to the row's
  // 1-D owner.  Canonical order: rows ascending, columns ascending — the
  // receiver reproduces it exactly.
  const index_t my_cols = cols2d.local_count(gc);
  std::vector<std::size_t> words(static_cast<std::size_t>(q), 0);
  rows2d.for_owned_runs(gr, 0, ns, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      words[static_cast<std::size_t>(lay1d.owner_of(i))] +=
          static_cast<std::size_t>(my_cols);
    }
  });
  std::vector<std::vector<real_t>> outgoing(static_cast<std::size_t>(q));
  nnz_t pack_words = 0;
  for (index_t d = 0; d < q; ++d) {
    outgoing[static_cast<std::size_t>(d)].reserve(
        words[static_cast<std::size_t>(d)]);
    pack_words += static_cast<nnz_t>(words[static_cast<std::size_t>(d)]);
  }
  rows2d.for_owned_runs(gr, 0, ns, [&](index_t i0, index_t i1) {
    for (index_t i = i0; i < i1; ++i) {
      auto& payload = outgoing[static_cast<std::size_t>(lay1d.owner_of(i))];
      // Entries above the pivot diagonal are structural zeros of the
      // trapezoid; they still move (the storage is dense).
      for_cols(gc, [&](index_t k) {
        payload.push_back(block[static_cast<std::size_t>(k * ns + i)]);
      });
    }
  });
  proc.compute_at(static_cast<double>(pack_words), proc.cost().t_mem);

  auto incoming = exec::all_to_all_personalized(
      proc, g, std::move(outgoing), static_cast<int>(8 * s));

  // Receive side: rebuild my 1-D rows and verify against the factor.
  real_t* local = out != nullptr ? out->local_block(w, s).data() : nullptr;
  const index_t nloc = out != nullptr ? out->local_rows(w, s) : 0;
  for (index_t src = 0; src < q; ++src) {
    std::size_t cursor = 0;
    const auto& in = incoming[static_cast<std::size_t>(src)];
    rows2d.for_owned_runs(src / grid.qc, 0, ns, [&](index_t i0, index_t i1) {
      for (index_t i = i0; i < i1; ++i) {
        if (lay1d.owner_of(i) != r) continue;
        for_cols(src % grid.qc, [&](index_t k) {
          SPARTS_CHECK(cursor < in.size(), "short redistribution payload");
          const real_t expected = block[static_cast<std::size_t>(k * ns + i)];
          SPARTS_CHECK(in[cursor] == expected,
                       "misrouted entry at supernode "
                           << s << " position (" << i << ", " << k << ")");
          if (local != nullptr) {
            local[k * nloc + lay1d.local_of(i)] = in[cursor];
          }
          ++cursor;
        });
      }
    });
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
