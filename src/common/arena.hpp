// NUMA-aware arena allocator for the hot buffers of the solve pipeline:
// message payloads, rank-local factor panels, and the solvers' RHS
// staging buffers (see docs/memory.md).
//
// Design (tcmalloc-shaped, deliberately small):
//   * Memory comes from large mmap'd chunks.  Each thread bump-allocates
//     from a private chunk and caches freed blocks in private per-size-
//     class freelists, so on a NUMA machine first-touch places a panel on
//     the node of the thread that allocated (and will consume) it, and
//     the steady-state alloc/free path takes no lock.
//   * Every block — arena or plain-heap — carries a 64-byte tagged header,
//     so allocation policy can change at any time (tests toggle it, the
//     env knob latches it) and arena_free() always routes a pointer back
//     to the policy that produced it.
//   * When a thread exits, its chunk remainder and freelists are donated
//     to a global pool under a mutex; new threads refill from that pool
//     before mapping fresh chunks, which bounds the footprint of backends
//     that spawn fresh rank threads per run.  Chunks are never unmapped:
//     a payload allocated by a rank thread may outlive the thread (moved
//     into the caller's result), so chunk memory must stay valid for the
//     process lifetime.
//   * Blocks larger than the largest size class get a dedicated mmap that
//     IS unmapped on free (nothing else lives in it).
//
// Knobs (read once, at first allocation):
//   SPARTS_ARENA=off      plain operator new/delete behind the same header
//                         (default: on; forced off under AddressSanitizer,
//                         which cannot poison arena memory).
//   SPARTS_HUGEPAGES=on   madvise(MADV_HUGEPAGE) every chunk (default: off).
//   SPARTS_NUMA=off       disable the per-thread caches: all allocation
//                         goes through the shared pool under the mutex
//                         (default: local = per-thread first-touch arenas).
//
// The allocator-injection idiom (a stateless std allocator delegating to
// the arena, so containers opt in per-type alias) follows dphim's
// pmem_allocator.hpp.
#pragma once

#include <cstddef>
#include <vector>

namespace sparts::common {

/// Arena-wide counters (approximate: updated with relaxed atomics).
struct ArenaStats {
  std::size_t chunks = 0;           ///< chunks ever mapped
  std::size_t chunk_bytes = 0;      ///< bytes in those chunks
  std::size_t huge_chunks = 0;      ///< chunks with MADV_HUGEPAGE applied
  std::size_t live_bytes = 0;       ///< payload bytes currently allocated
  std::size_t total_allocs = 0;     ///< arena_alloc calls ever
  std::size_t heap_fallbacks = 0;   ///< allocs served by operator new
  // Where the size-class fast path found its blocks (sums to the number
  // of chunk-backed allocations; feeds the arena.* metric gauges).
  std::size_t freelist_hits = 0;    ///< thread-local freelist pops
  std::size_t carves = 0;           ///< bump-carves from a thread chunk
  std::size_t pool_refills = 0;     ///< blocks served by the shared pool
  std::size_t donations = 0;        ///< thread caches donated at exit
};

/// Whether arena allocation is active (latched from SPARTS_ARENA on first
/// use; always false under AddressSanitizer).
bool arena_enabled();
/// Whether chunks are madvise'd to huge pages (SPARTS_HUGEPAGES).
bool arena_hugepages();
/// Whether per-thread caches are active (SPARTS_NUMA != off).
bool arena_numa_local();

/// Allocate `bytes` (payload 64-byte aligned, with the arena on or off).
/// Never returns nullptr (throws std::bad_alloc).
void* arena_alloc(std::size_t bytes);
/// Release a block from arena_alloc.  Safe from any thread, including
/// after the allocating thread exited.  nullptr is ignored.
void arena_free(void* p) noexcept;

ArenaStats arena_stats();

/// Test hook: override the SPARTS_ARENA decision.  Safe at any time —
/// blocks remember how they were allocated — but not thread-safe against
/// concurrent first use; call from a quiescent test body only.
void arena_force_enabled_for_test(bool on);

/// Stateless std allocator delegating to the arena.  Containers opt in
/// via alias, e.g. exec::Payload and partrisolve's factor blocks.
template <typename T>
struct ArenaAllocator {
  using value_type = T;

  ArenaAllocator() noexcept = default;
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>&) noexcept {}  // NOLINT(implicit)

  T* allocate(std::size_t n) {
    return static_cast<T*>(arena_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t /*n*/) noexcept { arena_free(p); }

  friend bool operator==(const ArenaAllocator&, const ArenaAllocator&) {
    return true;
  }
  friend bool operator!=(const ArenaAllocator&, const ArenaAllocator&) {
    return false;
  }
};

/// The standard arena-backed container alias.
template <typename T>
using ArenaVector = std::vector<T, ArenaAllocator<T>>;

}  // namespace sparts::common
