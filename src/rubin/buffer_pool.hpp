// Pre-registered buffer pool (paper §IV: "A pool of buffers for send and
// receive requests are pre-registered and can be reused as needed").
//
// One slab, one memory registration, fixed-size slots. Slot indices double
// as work-request ids so completions map back to buffers in O(1).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "verbs/memory.hpp"

namespace rubin::nio {

class BufferPool {
 public:
  /// Registers count*size bytes in `pd` with `access` flags.
  BufferPool(verbs::ProtectionDomain& pd, std::uint32_t count,
             std::size_t size, std::uint32_t access);
  ~BufferPool();
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  std::uint32_t count() const noexcept { return count_; }
  std::size_t slot_size() const noexcept { return size_; }
  std::uint32_t free_count() const noexcept {
    return static_cast<std::uint32_t>(free_.size());
  }

  /// Takes a free slot; nullopt when exhausted.
  std::optional<std::uint32_t> acquire();
  void release(std::uint32_t slot);

  /// Slots handed out by acquire() and not yet released.
  std::uint32_t acquired_count() const noexcept { return count_ - free_count(); }

  /// SGE covering `len` bytes of `slot`.
  verbs::Sge sge(std::uint32_t slot, std::uint32_t len) const;
  /// Writable view of a slot's memory.
  MutByteView view(std::uint32_t slot);
  ByteView view(std::uint32_t slot, std::size_t len) const;

 private:
  verbs::ProtectionDomain* pd_;
  Bytes slab_;
  verbs::MemoryRegion* mr_;
  std::uint32_t count_;
  std::size_t size_;
  std::vector<std::uint32_t> free_;
  /// Audit: per-slot lifecycle state (0 = free, 1 = acquired). Detects
  /// double release and leak-at-destruction (one byte per slot).
  std::vector<std::uint8_t> slot_state_;
};

}  // namespace rubin::nio
