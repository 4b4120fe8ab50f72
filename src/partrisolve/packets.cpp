#include "partrisolve/packets.hpp"

#include <cstring>

#include "common/error.hpp"

namespace sparts::partrisolve {

exec::Payload pack_rhs(const RhsPacket& p, index_t m) {
  SPARTS_CHECK(p.values.size() ==
               p.positions.size() * static_cast<std::size_t>(m));
  const index_t count = static_cast<index_t>(p.positions.size());
  exec::Payload out(sizeof(index_t) * (1 + p.positions.size()) +
                    sizeof(real_t) * p.values.size());
  std::size_t off = 0;
  // An empty packet's vectors may hold no storage at all; memcpy must not
  // see their null pointers, even for zero bytes.
  auto put = [&](const void* src, std::size_t len) {
    if (len == 0) return;
    std::memcpy(out.data() + off, src, len);
    off += len;
  };
  put(&count, sizeof(index_t));
  put(p.positions.data(), p.positions.size() * sizeof(index_t));
  put(p.values.data(), p.values.size() * sizeof(real_t));
  return out;
}

RhsPacket unpack_rhs(std::span<const std::byte> bytes, index_t m) {
  RhsPacket p;
  unpack_rhs(bytes, m, p);
  return p;
}

void unpack_rhs(std::span<const std::byte> bytes, index_t m, RhsPacket& p) {
  std::size_t off = 0;
  auto get = [&](void* dst, std::size_t len) {
    SPARTS_CHECK(off + len <= bytes.size(), "truncated RHS packet");
    if (len == 0) return;
    std::memcpy(dst, bytes.data() + off, len);
    off += len;
  };
  index_t count = 0;
  get(&count, sizeof(index_t));
  p.positions.resize(static_cast<std::size_t>(count));
  p.values.resize(static_cast<std::size_t>(count * m));
  get(p.positions.data(), p.positions.size() * sizeof(index_t));
  get(p.values.data(), p.values.size() * sizeof(real_t));
  SPARTS_CHECK(off == bytes.size(), "trailing bytes in RHS packet");
}

}  // namespace sparts::partrisolve
