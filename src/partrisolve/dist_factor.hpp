// Rank-local storage of the shared supernodes of the factor under the
// solvers' 1-D row-wise block-cyclic distribution.
//
// A supernode's solve-map group decides where the solve reads its L.  A
// single-rank supernode's panel already sits whole on its one rank, in the
// layout the solve reads, so DistributedTrisolver reads it from the
// SupernodalFactor and this class stores nothing for it.  For a supernode
// whose group has more than one rank, each group rank holds a private
// packed copy of exactly its block rows — the data structure the 2-D ->
// 1-D redistribution (redist/) produces, so the shared factor values the
// solver consumes really did travel through the network.
#pragma once

#include <vector>

#include "common/types.hpp"
#include "mapping/subtree_to_subcube.hpp"
#include "numeric/supernodal_factor.hpp"

namespace sparts::partrisolve {

class DistributedFactor {
 public:
  DistributedFactor() = default;

  /// Allocate empty (zero) rank-local storage for every (rank, supernode)
  /// participation of a shared supernode of the mapping.
  DistributedFactor(const symbolic::SupernodePartition& part,
                    const mapping::SubcubeMapping& map, index_t block_size);

  /// Fill the shared supernodes from a host-resident factor by direct
  /// packing (the "factor was already distributed like this" baseline).
  static DistributedFactor pack_from(const numeric::SupernodalFactor& factor,
                                     const mapping::SubcubeMapping& map,
                                     index_t block_size);

  index_t block_size() const { return block_size_; }

  /// Mutable local block of (world rank, shared supernode): packed owned
  /// rows x width(s), column-major, ld = local row count.
  std::vector<real_t>& local_block(index_t rank, index_t s);
  const std::vector<real_t>& local_block(index_t rank, index_t s) const;

  /// True when s is shared and rank is in its group.
  bool has_block(index_t rank, index_t s) const;

  /// Number of rows rank holds for supernode s (its packed ld).
  index_t local_rows(index_t rank, index_t s) const;

 private:
  /// Slot of (world rank, supernode), or -1 when the rank holds no block
  /// of s.
  index_t slot_of(index_t rank, index_t s) const;
  index_t checked_slot(index_t rank, index_t s) const;

  index_t block_size_ = 8;
  /// Rank w's block of shared supernode s is slot slots_[s] + (w -
  /// group_base_[s]); a single-rank supernode has no slots (slots_[s + 1]
  /// == slots_[s]), so a lookup is an O(1) array index.
  std::vector<index_t> slots_;
  std::vector<index_t> group_base_;          ///< per supernode
  std::vector<std::vector<real_t>> blocks_;  ///< per slot: packed values
  std::vector<index_t> local_rows_;          ///< per slot
};

}  // namespace sparts::partrisolve
