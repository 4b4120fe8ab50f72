// Rank-local storage of the factor under the solvers' 1-D row-wise
// block-cyclic distribution.
//
// The convenience path lets DistributedTrisolver read the shared
// SupernodalFactor directly (every access is provably to rows the rank
// owns).  This class is the strict path: each rank holds private packed
// copies of exactly its block rows of every supernode it participates in —
// the data structure the 2-D -> 1-D redistribution (redist/) produces, so
// the factor values the solver consumes really did travel through the
// simulated network.
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
  /// participation implied by the mapping.
  DistributedFactor(const symbolic::SupernodePartition& part,
                    const mapping::SubcubeMapping& map, index_t block_size);

  /// Convenience: fill from a host-resident factor by direct packing (the
  /// "factor was already distributed like this" baseline).
  static DistributedFactor pack_from(const numeric::SupernodalFactor& factor,
                                     const mapping::SubcubeMapping& map,
                                     index_t block_size);

  index_t block_size() const { return block_size_; }

  /// Mutable local block of (world rank, supernode): packed owned rows x
  /// width(s), column-major, ld = local row count.
  std::vector<real_t>& local_block(index_t rank, index_t s);
  const std::vector<real_t>& local_block(index_t rank, index_t s) const;

  bool has_block(index_t rank, index_t s) const;

  /// Number of rows rank holds for supernode s (its packed ld).
  index_t local_rows(index_t rank, index_t s) const;

 private:
  /// Participation slot of (world rank, supernode), or -1 when the rank
  /// holds no block of s.
  index_t slot_of(index_t rank, index_t s) const;
  index_t checked_slot(index_t rank, index_t s) const;

  index_t block_size_ = 8;
  /// SubcubeMapping::participation_slots(): rank w's block of supernode s
  /// is slot slots_[s] + (w - group_base_[s]), an O(1) lookup.
  std::vector<index_t> slots_;
  std::vector<index_t> group_base_;          ///< per supernode
  std::vector<std::vector<real_t>> blocks_;  ///< per slot: packed values
  std::vector<index_t> local_rows_;          ///< per slot
};

}  // namespace sparts::partrisolve
