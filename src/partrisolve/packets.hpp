// Wire format for right-hand-side fragments exchanged between supernodes:
// a list of positions (in the receiver's trapezoid) plus m values per
// position.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "exec/process.hpp"

namespace sparts::partrisolve {

struct RhsPacket {
  std::vector<index_t> positions;  ///< positions in the receiver's rows
  std::vector<real_t> values;      ///< positions.size() * m, position-major

  bool empty() const { return positions.empty(); }
};

/// Serialize: [count][positions...][values...].  Returns an owned Payload
/// so callers can hand the buffer to Process::send_owned and large panels
/// ride the zero-copy lane.
exec::Payload pack_rhs(const RhsPacket& p, index_t m);

/// Inverse of pack_rhs into `out`, reusing its capacity.
void unpack_rhs(std::span<const std::byte> bytes, index_t m, RhsPacket& out);

/// Inverse of pack_rhs.
RhsPacket unpack_rhs(std::span<const std::byte> bytes, index_t m);

}  // namespace sparts::partrisolve
