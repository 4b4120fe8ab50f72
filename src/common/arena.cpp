#include "common/arena.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>  // sparts-lint: allow(naked-new)

#include "common/checks.hpp"
#include "common/donation_pool.hpp"

// ASan cannot poison or track arena-recycled memory, so use-after-free in
// payload buffers would become invisible.  Force the plain-heap path (the
// tagged header keeps the code path shape identical).
#if defined(__SANITIZE_ADDRESS__)
#define SPARTS_ARENA_FORCED_OFF 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SPARTS_ARENA_FORCED_OFF 1
#endif
#endif

namespace sparts::common {

namespace {

// ---------------------------------------------------------------------------
// Block headers
// ---------------------------------------------------------------------------

constexpr std::uint32_t kMagicChunk = 0x5Aa11001;  ///< size-class block
constexpr std::uint32_t kMagicHeap = 0x5Aa11002;   ///< operator new block
constexpr std::uint32_t kMagicBig = 0x5Aa11003;    ///< dedicated mmap

/// 64 bytes so chunk-backed payloads stay cache-line aligned.
struct alignas(64) BlockHeader {
  std::uint32_t magic = 0;
  std::uint32_t size_class = 0;  ///< kMagicChunk only
  std::uint64_t payload_bytes = 0;
  std::uint64_t mapped_bytes = 0;  ///< kMagicBig only: munmap length
  /// Freelist link while the block is free (the payload itself may not be
  /// written to: a stale reader could still hold the pointer only in
  /// buggy code, but keeping links out of payload also helps debugging).
  void* next_free = nullptr;
};
static_assert(sizeof(BlockHeader) == 64);

constexpr std::size_t kHeaderBytes = sizeof(BlockHeader);

BlockHeader* header_of(void* payload) {
  return reinterpret_cast<BlockHeader*>(static_cast<std::byte*>(payload) -
                                        kHeaderBytes);
}
void* payload_of(BlockHeader* h) {
  return reinterpret_cast<std::byte*>(h) + kHeaderBytes;
}

// ---------------------------------------------------------------------------
// Size classes: 64 B << c, c in [0, kNumClasses)
// ---------------------------------------------------------------------------

constexpr std::size_t kMinClassBytes = 64;
constexpr std::size_t kNumClasses = 15;  ///< 64 B .. 1 MiB
constexpr std::size_t kMaxClassBytes = kMinClassBytes << (kNumClasses - 1);
constexpr std::size_t kChunkBytes = std::size_t{8} << 20;

std::size_t class_of(std::size_t bytes) {
  std::size_t c = 0;
  std::size_t sz = kMinClassBytes;
  while (sz < bytes) {
    sz <<= 1U;
    ++c;
  }
  return c;
}
std::size_t class_bytes(std::size_t c) { return kMinClassBytes << c; }

// ---------------------------------------------------------------------------
// Global state (leaked singleton: payloads may be freed during static
// destruction, so this must outlive everything)
// ---------------------------------------------------------------------------

struct Span {
  std::byte* cur = nullptr;
  std::byte* end = nullptr;
  std::size_t left() const { return static_cast<std::size_t>(end - cur); }
};

using FreeList = IntrusiveFreeList<BlockHeader>;

struct Global {
  /// Donated freelists + bump-space remainders (see donation_pool.hpp).
  DonationPool<BlockHeader, Span, kNumClasses> pool;

  std::atomic<std::size_t> chunks{0};
  std::atomic<std::size_t> chunk_bytes{0};
  std::atomic<std::size_t> huge_chunks{0};
  std::atomic<std::size_t> live_bytes{0};
  std::atomic<std::size_t> total_allocs{0};
  std::atomic<std::size_t> heap_fallbacks{0};
  std::atomic<std::size_t> freelist_hits{0};
  std::atomic<std::size_t> carves{0};
  std::atomic<std::size_t> pool_refills{0};
  std::atomic<std::size_t> donations{0};
};

Global& global() {
  // Leaked on purpose; see the class comment.
  static Global* g = new Global;  // sparts-lint: allow(naked-new)
  return *g;
}

bool env_flag(const char* name, bool dflt) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return dflt;
  return !(std::strcmp(v, "off") == 0 || std::strcmp(v, "0") == 0 ||
           std::strcmp(v, "false") == 0);
}

std::atomic<int> g_forced_mode{-1};  ///< -1 env, 0 off, 1 on

bool hugepages_enabled() {
  static const bool on = env_flag("SPARTS_HUGEPAGES", false);
  return on;
}

bool numa_local_enabled() {
  static const bool on = env_flag("SPARTS_NUMA", true);
  return on;
}

/// Map a fresh chunk (never unmapped).  Returns empty span on failure.
Span map_chunk(std::size_t bytes) {
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return {};
  Global& g = global();
  if (hugepages_enabled()) {
#ifdef MADV_HUGEPAGE
    if (::madvise(p, bytes, MADV_HUGEPAGE) == 0) {
      g.huge_chunks.fetch_add(1, std::memory_order_relaxed);
    }
#endif
  }
  g.chunks.fetch_add(1, std::memory_order_relaxed);
  g.chunk_bytes.fetch_add(bytes, std::memory_order_relaxed);
  return Span{static_cast<std::byte*>(p), static_cast<std::byte*>(p) + bytes};
}

// ---------------------------------------------------------------------------
// Thread cache
// ---------------------------------------------------------------------------

struct ThreadCache {
  Span chunk;
  FreeList free_lists[kNumClasses];
  bool alive = true;

  ~ThreadCache() {
    // Donate everything so per-run rank threads don't strand memory.
    Global& g = global();
    g.pool.donate(free_lists, &chunk,
                  chunk.left() >= kHeaderBytes + kMinClassBytes);
    g.donations.fetch_add(1, std::memory_order_relaxed);
    alive = false;
  }
};

/// The cache, plus a destruction flag readable after the dtor ran (the
/// object memory persists; `alive` flips false).  A rank thread's payload
/// can be freed by the main thread during static destruction, after the
/// main thread's own cache died — route those to the global lists.
ThreadCache* thread_cache() {
  thread_local ThreadCache cache;
  return &cache;
}

BlockHeader* carve_from(Span& span, std::size_t c) {
  const std::size_t need = kHeaderBytes + class_bytes(c);
  if (span.left() < need) return nullptr;
  auto* h = reinterpret_cast<BlockHeader*>(span.cur);
  span.cur += need;
  h->magic = kMagicChunk;
  h->size_class = static_cast<std::uint32_t>(c);
  h->next_free = nullptr;
  return h;
}

/// Slow path: refill from the global pool or a fresh chunk.  Returns
/// nullptr if mmap fails (caller falls back to the heap).
BlockHeader* alloc_class_global(std::size_t c) {
  BlockHeader* h = global().pool.acquire(
      c, [c](Span& span) { return carve_from(span, c); },
      [] { return map_chunk(kChunkBytes); });
  if (h != nullptr) {
    global().pool_refills.fetch_add(1, std::memory_order_relaxed);
  }
  return h;
}

BlockHeader* alloc_class(std::size_t c) {
  if (!numa_local_enabled()) return alloc_class_global(c);
  ThreadCache* tc = thread_cache();
  if (!tc->alive) return alloc_class_global(c);
  Global& g = global();
  if (BlockHeader* h = tc->free_lists[c].pop(); h != nullptr) {
    g.freelist_hits.fetch_add(1, std::memory_order_relaxed);
    return h;
  }
  if (BlockHeader* h = carve_from(tc->chunk, c); h != nullptr) {
    g.carves.fetch_add(1, std::memory_order_relaxed);
    return h;
  }
  // Retire the remainder (usable by smaller classes) and start a fresh
  // chunk mapped — and thus first-touched — by this thread.
  if (BlockHeader* h = g.pool.acquire_or_retire(
          c, &tc->chunk, kHeaderBytes + kMinClassBytes);
      h != nullptr) {
    g.pool_refills.fetch_add(1, std::memory_order_relaxed);
    return h;
  }
  Span fresh = map_chunk(kChunkBytes);
  if (fresh.cur == nullptr) return nullptr;
  tc->chunk = fresh;
  BlockHeader* h = carve_from(tc->chunk, c);
  if (h != nullptr) g.carves.fetch_add(1, std::memory_order_relaxed);
  return h;
}

void* alloc_heap(std::size_t bytes) {
  Global& g = global();
  g.heap_fallbacks.fetch_add(1, std::memory_order_relaxed);
  // Raw operator new: the block needs a header the smart-pointer idiom
  // cannot prepend.  Aligned like the header, so the payload after it is
  // 64-byte aligned here as well.
  auto* h = static_cast<BlockHeader*>(
      ::operator new(kHeaderBytes + bytes,  // sparts-lint: allow(naked-new)
                     std::align_val_t{alignof(BlockHeader)}));
  h->magic = kMagicHeap;
  h->size_class = 0;
  h->payload_bytes = bytes;
  h->next_free = nullptr;
  return payload_of(h);
}

void* alloc_big(std::size_t bytes) {
  const std::size_t total = kHeaderBytes + bytes;
  const std::size_t page = std::size_t{1} << 21U;  // round to 2 MiB
  const std::size_t mapped = (total + page - 1) / page * page;
  void* p = ::mmap(nullptr, mapped, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) return alloc_heap(bytes);
  if (hugepages_enabled()) {
#ifdef MADV_HUGEPAGE
    ::madvise(p, mapped, MADV_HUGEPAGE);
#endif
  }
  auto* h = static_cast<BlockHeader*>(p);
  h->magic = kMagicBig;
  h->size_class = 0;
  h->payload_bytes = bytes;
  h->mapped_bytes = mapped;
  h->next_free = nullptr;
  return payload_of(h);
}

}  // namespace

bool arena_enabled() {
#ifdef SPARTS_ARENA_FORCED_OFF
  return false;
#else
  const int forced = g_forced_mode.load(std::memory_order_relaxed);
  if (forced >= 0) return forced != 0;
  static const bool on = env_flag("SPARTS_ARENA", true);
  return on;
#endif
}

bool arena_hugepages() { return hugepages_enabled(); }
bool arena_numa_local() { return numa_local_enabled(); }

void arena_force_enabled_for_test(bool on) {
  g_forced_mode.store(on ? 1 : 0, std::memory_order_relaxed);
}

void* arena_alloc(std::size_t bytes) {
  Global& g = global();
  g.total_allocs.fetch_add(1, std::memory_order_relaxed);
  g.live_bytes.fetch_add(bytes, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  if (!arena_enabled()) return alloc_heap(bytes);
  if (bytes > kMaxClassBytes) return alloc_big(bytes);
  const std::size_t c = class_of(bytes);
  BlockHeader* h = alloc_class(c);
  if (h == nullptr) return alloc_heap(bytes);  // mmap exhausted
  h->payload_bytes = bytes;
  return payload_of(h);
}

void arena_free(void* p) noexcept {
  if (p == nullptr) return;
  BlockHeader* h = header_of(p);
  Global& g = global();
  g.live_bytes.fetch_sub(h->payload_bytes, std::memory_order_relaxed);
  switch (h->magic) {
    case kMagicHeap:
      ::operator delete(h, std::align_val_t{alignof(BlockHeader)});
      return;
    case kMagicBig:
      ::munmap(h, h->mapped_bytes);
      return;
    case kMagicChunk: {
      const std::size_t c = h->size_class;
      if (numa_local_enabled()) {
        ThreadCache* tc = thread_cache();
        if (tc->alive) {
          tc->free_lists[c].push(h);
          return;
        }
      }
      g.pool.release(c, h);
      return;
    }
    default:
      SPARTS_CHECK(false, "arena_free: corrupt or foreign block header");
  }
}

ArenaStats arena_stats() {
  Global& g = global();
  ArenaStats s;
  s.chunks = g.chunks.load(std::memory_order_relaxed);
  s.chunk_bytes = g.chunk_bytes.load(std::memory_order_relaxed);
  s.huge_chunks = g.huge_chunks.load(std::memory_order_relaxed);
  s.live_bytes = g.live_bytes.load(std::memory_order_relaxed);
  s.total_allocs = g.total_allocs.load(std::memory_order_relaxed);
  s.heap_fallbacks = g.heap_fallbacks.load(std::memory_order_relaxed);
  s.freelist_hits = g.freelist_hits.load(std::memory_order_relaxed);
  s.carves = g.carves.load(std::memory_order_relaxed);
  s.pool_refills = g.pool_refills.load(std::memory_order_relaxed);
  s.donations = g.donations.load(std::memory_order_relaxed);
  return s;
}

}  // namespace sparts::common
