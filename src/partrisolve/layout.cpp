#include "partrisolve/layout.hpp"

#include <vector>

namespace sparts::partrisolve {

void validate_block_cyclic(const Layout& lay) {
  SPARTS_CHECK(lay.b >= 1, "[block-cyclic-shape] block size must be >= 1, got "
                               << lay.b);
  SPARTS_CHECK(lay.q >= 1,
               "[block-cyclic-shape] processor count must be >= 1, got "
                   << lay.q);
  SPARTS_CHECK(lay.ns >= 0, "[block-cyclic-shape] index count must be >= 0");
  // Ownership sweep: every position maps to a rank in range and to a fresh
  // packed slot on that rank, and each rank's count is its local_count, so
  // the counts partition ns.
  std::vector<index_t> next_local(static_cast<std::size_t>(lay.q), 0);
  for (index_t i = 0; i < lay.ns; ++i) {
    const index_t r = lay.owner_of(i);
    SPARTS_CHECK(r >= 0 && r < lay.q, "[block-cyclic-ownership] index "
                                          << i << " owned by rank " << r
                                          << " outside [0, " << lay.q << ")");
    const index_t local = lay.local_of(i);
    SPARTS_CHECK(local == next_local[static_cast<std::size_t>(r)],
                 "[block-cyclic-ownership] index "
                     << i << " packs to local slot " << local << " on rank "
                     << r << ", expected "
                     << next_local[static_cast<std::size_t>(r)]
                     << " (packed storage must be dense and ascending)");
    ++next_local[static_cast<std::size_t>(r)];
  }
  for (index_t r = 0; r < lay.q; ++r) {
    const index_t owned = next_local[static_cast<std::size_t>(r)];
    SPARTS_CHECK(owned == lay.local_count(r),
                 "[block-cyclic-ownership] rank "
                     << r << " owns " << owned
                     << " indices but local_count reports "
                     << lay.local_count(r));
  }
}

}  // namespace sparts::partrisolve
