// Conversion of the factor's data distribution between factorization and
// triangular solution (paper §4, Fig. 6).
//
// Parallel factorization wants every shared supernode partitioned in two
// dimensions (block-cyclic over a near-square processor grid); the
// triangular solvers are only scalable with a one-dimensional row-wise
// partitioning.  The conversion of one n x t supernode shared by q
// processors is equivalent to transposing each (n/sqrt(q)) x t horizontal
// slab among the sqrt(q) processors that share it — an all-to-all
// personalized communication among q processors moving ~nt/q words per
// processor.  The paper shows (and we measure) that this one-time cost is
// a fraction of a single triangular solve.
#pragma once

#include "common/types.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/supernodal_factor.hpp"
#include "partrisolve/dist_factor.hpp"
#include "exec/process.hpp"

namespace sparts::redist {

struct Options {
  index_t block_2d = 16;  ///< block size of the factorization distribution
  index_t block_1d = 8;   ///< block size of the solver distribution
};

struct Report {
  exec::RunStats stats;
  double time() const { return stats.parallel_time(); }
};

/// Simulate the 2-D -> 1-D conversion of every shared supernode of the
/// factor.  Data movement is performed with the factor's real values and
/// the routing is verified entry-by-entry on the receiving side (throws on
/// any misrouted value).
///
/// If `out` is non-null it receives the rank-local 1-D storage of the
/// shared supernodes, built from the *received* values — pass it to
/// DistributedTrisolver so the solver consumes exactly the data that
/// traveled through the network.  A shared supernode that does not move
/// (see redistribute_supernode) is copied on the host to its group's
/// first rank.  Single-rank supernodes get no storage: the solve reads
/// them from `factor`.  The out storage uses block size options.block_1d.
Report redistribute_factor(exec::Comm& machine,
                           const numeric::SupernodalFactor& factor,
                           const mapping::SubcubeMapping& map,
                           const Options& options = {},
                           partrisolve::DistributedFactor* out = nullptr);

/// Convert one shared supernode 2-D -> 1-D from within a running SPMD
/// region.  No-op for ranks outside supernode s's group and for
/// supernodes that do not move: a sequential one, or one whose trapezoid
/// is no taller than either block size (the group's first rank holds the
/// whole trapezoid under either distribution; redistribute_factor copies
/// the shared ones on the host).
/// Each rank writes only its own fragment of `out`, so concurrent calls
/// from different ranks of the group are safe.
void redistribute_supernode(exec::Process& proc,
                            const numeric::SupernodalFactor& factor,
                            const mapping::SubcubeMapping& map,
                            const Options& options, index_t s,
                            partrisolve::DistributedFactor* out);

}  // namespace sparts::redist
