// Size-bucketed recycling allocator for the simulator's per-event
// transients: every Task<T> coroutine frame and every UniqueFunction heap
// spill. The DES resume loop allocates and frees the same handful of
// frame shapes millions of times per run (a 1 KiB channel echo round trip
// is ~20 frames); recycling them through a thread-local free list turns
// those malloc/free pairs into two pointer moves.
//
// Layout: each block carries a kHeader-byte prefix recording its bucket,
// so deallocation needs no size from the caller (coroutine frames only
// sometimes get sized delete, UniqueFunction's type-erased deleter never
// has one). Blocks are rounded up to kGranularity so distinct frame
// shapes share buckets; anything above kMaxPooled bypasses the pool.
//
// Threading: the free lists are thread-local. A block allocated on one
// thread and freed on another simply joins the freeing thread's list —
// every block is plain malloc memory, so lists may mix freely. The
// handoff of the owning object itself is synchronized by whatever queue
// moved it, which orders the reuse after the free.
//
// Determinism: recycling changes addresses, never virtual time — the
// golden digest and the replay batteries in tests/determinism_test.cpp
// pin that.
//
// Under AddressSanitizer the pool is compiled out (plain new/delete), so
// use-after-free of coroutine frames stays detectable — pooled memory
// would mask exactly the lifetime bugs the asan preset exists to catch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/audit.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define RUBIN_FRAME_POOL_OFF 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RUBIN_FRAME_POOL_OFF 1
#endif
#endif

namespace rubin::frame_pool {

/// Bucket width: frame sizes within the same 64-byte band share a list.
inline constexpr std::size_t kGranularity = 64;
/// Largest pooled block (header included); bigger requests use malloc.
inline constexpr std::size_t kMaxPooled = 2048;
inline constexpr std::size_t kBuckets = kMaxPooled / kGranularity;
/// Per-bucket cache depth; overflow is returned to malloc so an
/// allocation burst cannot pin unbounded memory in a quiet thread.
inline constexpr std::size_t kMaxFree = 64;
/// Prefix size: one max_align_t unit, so the caller's block keeps the
/// default new alignment. The bucket index (or kUnpooled) lives here.
inline constexpr std::size_t kHeader = alignof(std::max_align_t);
inline constexpr std::uint32_t kUnpooled = 0xffffffffu;

namespace detail {

struct Node {
  Node* next;
};

/// Trivially destructible on purpose: late frees during thread teardown
/// (an object outliving the drain guard) still find valid state and take
/// the plain-free path via `disabled`.
struct State {
  Node* free[kBuckets];
  std::uint32_t depth[kBuckets];
  bool disabled;
};

/// Thread-exit drain: constructed on a thread's first pool use, so it is
/// destroyed before any later-constructed thread-locals and while State
/// (trivially destructible) is still valid. Frees the cached blocks and
/// flips the pool to pass-through for any stragglers.
struct DrainGuard {
  State& s;
  ~DrainGuard() {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      Node* n = s.free[b];
      while (n != nullptr) {
        Node* next = n->next;
        std::free(n);  // NOLINT(cppcoreguidelines-no-malloc)
        n = next;
      }
      s.free[b] = nullptr;
      s.depth[b] = 0;
    }
    s.disabled = true;
  }
};

inline State& state() noexcept {
  thread_local State s{};
  thread_local DrainGuard guard{s};
  return s;
}

}  // namespace detail

/// Allocates `n` usable bytes (throws std::bad_alloc on exhaustion).
inline void* allocate(std::size_t n) {
  const std::size_t total = n + kHeader;
  auto finish = [](void* raw, std::uint32_t bucket) {
    if (raw == nullptr) throw std::bad_alloc();
    *static_cast<std::uint32_t*>(raw) = bucket;
    return static_cast<void*>(static_cast<unsigned char*>(raw) + kHeader);
  };
#if !defined(RUBIN_FRAME_POOL_OFF)
  if (total <= kMaxPooled) {
    const auto b = static_cast<std::uint32_t>((total - 1) / kGranularity);
    detail::State& s = detail::state();
    if (!s.disabled) {
      if (detail::Node* hit = s.free[b]; hit != nullptr) {
        s.free[b] = hit->next;
        --s.depth[b];
        RUBIN_AUDIT_COUNT("sim.frame_pool.reuse", 1);
        return finish(hit, b);
      }
      RUBIN_AUDIT_COUNT("sim.frame_pool.fresh", 1);
      // NOLINTNEXTLINE(cppcoreguidelines-no-malloc)
      return finish(std::malloc((b + 1) * kGranularity), b);
    }
  }
#endif
  // NOLINTNEXTLINE(cppcoreguidelines-no-malloc)
  return finish(std::malloc(total), kUnpooled);
}

/// Returns a block obtained from allocate(); null is ignored.
inline void deallocate(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<unsigned char*>(p) - kHeader;
#if !defined(RUBIN_FRAME_POOL_OFF)
  const std::uint32_t b = *static_cast<std::uint32_t*>(raw);
  if (b != kUnpooled) {
    detail::State& s = detail::state();
    if (!s.disabled && s.depth[b] < kMaxFree) {
      auto* node = static_cast<detail::Node*>(raw);
      node->next = s.free[b];
      s.free[b] = node;
      ++s.depth[b];
      return;
    }
  }
#endif
  std::free(raw);  // NOLINT(cppcoreguidelines-no-malloc)
}

}  // namespace rubin::frame_pool
