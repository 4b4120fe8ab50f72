#include "partrisolve/dist_factor.hpp"

#include "common/error.hpp"
#include "partrisolve/layout.hpp"

namespace sparts::partrisolve {

DistributedFactor::DistributedFactor(const symbolic::SupernodePartition& part,
                                     const mapping::SubcubeMapping& map,
                                     index_t block_size)
    : block_size_(block_size) {
  SPARTS_CHECK(block_size >= 1);
  const index_t nsup = part.num_supernodes();
  SPARTS_CHECK(static_cast<index_t>(map.group.size()) == nsup,
               "mapping must cover all " << nsup << " supernodes");
  slots_.assign(static_cast<std::size_t>(nsup) + 1, 0);
  group_base_.resize(static_cast<std::size_t>(nsup));
  for (index_t s = 0; s < nsup; ++s) {
    const auto su = static_cast<std::size_t>(s);
    const exec::Group& g = map.group[su];
    group_base_[su] = g.base;
    if (map.is_parallel(s)) {
      const Layout lay{g.count, block_size, part.height(s), part.width(s)};
      for (index_t r = 0; r < g.count; ++r) {
        const index_t nloc = lay.local_count(r);
        local_rows_.push_back(nloc);
        blocks_.emplace_back(static_cast<std::size_t>(nloc * part.width(s)),
                             0.0);
      }
    }
    slots_[su + 1] = static_cast<index_t>(blocks_.size());
  }
}

DistributedFactor DistributedFactor::pack_from(
    const numeric::SupernodalFactor& factor, const mapping::SubcubeMapping& map,
    index_t block_size) {
  const auto& part = factor.partition();
  DistributedFactor df(part, map, block_size);
  for (index_t s = 0; s < part.num_supernodes(); ++s) {
    if (!map.is_parallel(s)) continue;
    const exec::Group& g = map.group[static_cast<std::size_t>(s)];
    const Layout lay{g.count, block_size, part.height(s), part.width(s)};
    const auto block = factor.block(s);
    const index_t t = part.width(s);
    for (index_t r = 0; r < g.count; ++r) {
      const index_t w = g.world(r);
      auto& local = df.local_block(w, s);
      const index_t nloc = lay.local_count(r);
      for (index_t i = 0; i < lay.ns; ++i) {
        if (lay.owner_of(i) != r) continue;
        const index_t lo = lay.local_of(i);
        for (index_t k = 0; k < t; ++k) {
          local[static_cast<std::size_t>(k * nloc + lo)] =
              block[static_cast<std::size_t>(k * lay.ns + i)];
        }
      }
    }
  }
  return df;
}

index_t DistributedFactor::slot_of(index_t rank, index_t s) const {
  if (s < 0 || s >= static_cast<index_t>(group_base_.size())) return -1;
  const auto su = static_cast<std::size_t>(s);
  const index_t r = rank - group_base_[su];
  if (r < 0 || r >= slots_[su + 1] - slots_[su]) return -1;
  return slots_[su] + r;
}

index_t DistributedFactor::checked_slot(index_t rank, index_t s) const {
  const index_t k = slot_of(rank, s);
  SPARTS_CHECK(k >= 0, "rank " << rank << " holds no block of supernode " << s);
  return k;
}

std::vector<real_t>& DistributedFactor::local_block(index_t rank, index_t s) {
  return blocks_[static_cast<std::size_t>(checked_slot(rank, s))];
}

const std::vector<real_t>& DistributedFactor::local_block(index_t rank,
                                                         index_t s) const {
  return blocks_[static_cast<std::size_t>(checked_slot(rank, s))];
}

bool DistributedFactor::has_block(index_t rank, index_t s) const {
  return slot_of(rank, s) >= 0;
}

index_t DistributedFactor::local_rows(index_t rank, index_t s) const {
  return local_rows_[static_cast<std::size_t>(checked_slot(rank, s))];
}

}  // namespace sparts::partrisolve
