// Per-supernode distributed layout arithmetic.
//
// The trapezoid of a supernode (height ns, width t) is distributed among
// the q processors of its group by 1-D row-wise block-cyclic mapping with
// block size b over its *positions* 0..ns-1 (position i is the i-th row of
// the trapezoid; positions < t are the pivot rows).  Each rank stores its
// owned positions packed in ascending order; because only the globally last
// block can be ragged, the packed offset of a position is O(1).
#pragma once

#include <algorithm>

#include "common/error.hpp"
#include "common/types.hpp"

namespace sparts::partrisolve {

struct Layout {
  index_t q = 1;   ///< group size
  index_t b = 1;   ///< block size
  index_t ns = 0;  ///< trapezoid height (number of positions)
  index_t t = 0;   ///< trapezoid width (pivot rows)

  index_t num_blocks() const { return (ns + b - 1) / b; }
  /// Blocks covering the pivot triangle.
  index_t num_pivot_blocks() const { return (t + b - 1) / b; }

  index_t block_of(index_t pos) const { return pos / b; }
  index_t owner_of_block(index_t blk) const { return blk % q; }
  /// A single-rank group (every supernode of a subcube-local subtree) owns
  /// every position at its own offset, so owner_of/local_of skip the
  /// divisions there.
  index_t owner_of(index_t pos) const {
    return q == 1 ? 0 : owner_of_block(pos / b);
  }

  /// Rows of block `blk`: [block_begin, block_end).
  index_t block_begin(index_t blk) const { return blk * b; }
  index_t block_end(index_t blk) const { return std::min((blk + 1) * b, ns); }

  /// Column range of pivot block K: [col_begin, col_end) (clipped at t).
  index_t col_begin(index_t k) const { return k * b; }
  index_t col_end(index_t k) const { return std::min((k + 1) * b, t); }

  /// Packed local offset of position `pos` on its owner.
  index_t local_of(index_t pos) const {
    if (q == 1) return pos;
    const index_t blk = pos / b;
    const index_t local_block = blk / q;
    return local_block * b + (pos - blk * b);
  }

  /// Number of positions owned by rank r (0 <= r < q): r's blocks are
  /// r, r+q, ..., all full except the globally last one.
  index_t local_count(index_t r) const {
    const index_t nb = num_blocks();
    if (r >= nb) return 0;
    const index_t count = ((nb - 1 - r) / q + 1) * b;
    return owner_of_block(nb - 1) == r ? count - (nb * b - ns) : count;
  }

  /// Call f(begin, end) for every run of positions in [lo, hi) (hi <= ns)
  /// that rank r owns, ascending: one run per owned block, so packed
  /// offsets are contiguous within a run.
  template <typename F>
  void for_owned_runs(index_t r, index_t lo, index_t hi, F&& f) const {
    if (lo >= hi) return;
    const index_t first = lo / b;
    for (index_t blk = first + ((r - first) % q + q) % q; blk * b < hi;
         blk += q) {
      f(std::max(blk * b, lo), std::min((blk + 1) * b, hi));
    }
  }
};

/// Structural validator (SPARTS_CHECKS system) for a layout: shape
/// ([block-cyclic-shape]) plus a full ownership sweep — every position
/// owned by exactly one rank, packed local offsets form a bijection,
/// per-rank counts sum to ns ([block-cyclic-ownership]).  O(ns).
void validate_block_cyclic(const Layout& lay);

}  // namespace sparts::partrisolve
