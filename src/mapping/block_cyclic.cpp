#include "mapping/block_cyclic.hpp"

#include <vector>

namespace sparts::mapping {

BlockCyclic2d BlockCyclic2d::near_square(index_t q, index_t b) {
  SPARTS_CHECK(q >= 1 && (q & (q - 1)) == 0,
               "grid size must be a power of two");
  index_t qr = 1, qc = 1;
  bool grow_row = true;
  while (qr * qc < q) {
    if (grow_row) {
      qr *= 2;
    } else {
      qc *= 2;
    }
    grow_row = !grow_row;
  }
  return BlockCyclic2d{b, qr, qc};
}

void validate_block_cyclic(const BlockCyclic2d& map) {
  SPARTS_CHECK(map.b >= 1, "[block-cyclic-shape] block size must be >= 1, got "
                               << map.b);
  SPARTS_CHECK(map.qr >= 1 && map.qc >= 1,
               "[block-cyclic-shape] grid must be at least 1x1, got "
                   << map.qr << "x" << map.qc);
  // One full period of block coordinates covers every (row-rank, col-rank)
  // combination exactly once.
  std::vector<index_t> seen(static_cast<std::size_t>(map.nprocs()), 0);
  for (index_t bi = 0; bi < map.qr; ++bi) {
    for (index_t bj = 0; bj < map.qc; ++bj) {
      const index_t owner = map.owner(bi * map.b, bj * map.b);
      SPARTS_CHECK(owner >= 0 && owner < map.nprocs(),
                   "[block-cyclic-ownership] block ("
                       << bi << "," << bj << ") owned by rank " << owner
                       << " outside [0, " << map.nprocs() << ")");
      ++seen[static_cast<std::size_t>(owner)];
    }
  }
  for (index_t r = 0; r < map.nprocs(); ++r) {
    SPARTS_CHECK(seen[static_cast<std::size_t>(r)] == 1,
                 "[block-cyclic-ownership] grid rank "
                     << r << " owns " << seen[static_cast<std::size_t>(r)]
                     << " blocks per period, expected exactly 1");
  }
}

}  // namespace sparts::mapping
