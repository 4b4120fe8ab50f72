// Numeric storage of the Cholesky factor in supernodal (dense trapezoid)
// form — the data structure every solver in this library operates on.
//
// Supernode s owns a dense column-major block of height(s) x width(s):
// entry (i, k) holds L(rows(s)[i], first_col(s) + k).  Entries with
// rows(s)[i] < first_col(s)+k lie above the diagonal inside the pivot
// triangle and are structurally zero.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "symbolic/supernodes.hpp"

namespace sparts::numeric {

class SupernodalFactor {
 public:
  SupernodalFactor() = default;

  /// Allocate zeroed storage for the given partition.
  explicit SupernodalFactor(symbolic::SupernodePartition partition);

  const symbolic::SupernodePartition& partition() const { return part_; }
  index_t n() const { return part_.n(); }
  index_t num_supernodes() const { return part_.num_supernodes(); }

  /// Column-major block of supernode s (height(s) x width(s), ld = height).
  std::span<real_t> block(index_t s);
  std::span<const real_t> block(index_t s) const;

  /// Leading dimension of supernode s's block.
  index_t ld(index_t s) const { return part_.height(s); }

  /// Every trapezoid back to back (the full value array) — for bulk
  /// serialization (factor_io) and the socket backend's cross-process
  /// factor mirror (exec::allmerge_nonzero).
  std::span<real_t> values() { return {values_.data(), values_.size()}; }
  std::span<const real_t> values() const {
    return {values_.data(), values_.size()};
  }

  /// L(i, j) for i >= j; zero if outside the structure.
  real_t at(index_t i, index_t j) const;

  /// Total stored entries (including structural zeros of the trapezoids).
  nnz_t stored_entries() const {
    return static_cast<nnz_t>(values_.size());
  }

  /// Nonzeros of L counted the sparse way: entries on or below the
  /// diagonal inside the trapezoids.
  nnz_t factor_nnz() const;

  /// Exact flops of one forward+backward solve with m right-hand sides.
  nnz_t solve_flops(index_t m) const;

 private:
  symbolic::SupernodePartition part_;
  std::vector<nnz_t> offset_;
  std::vector<real_t> values_;
};

}  // namespace sparts::numeric
