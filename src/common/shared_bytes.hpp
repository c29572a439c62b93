// Zero-copy payload substrate: refcounted immutable buffers and
// scatter-gather frames.
//
// The data plane used to flatten and memcpy a payload at every hop
// (serialize, broadcast, stage into a send slot, snapshot at the NIC,
// copy out at the receiver). `SharedBytes` makes "hand this payload to
// another layer" a pointer bump instead: one allocation holds a small
// refcount header plus the bytes, and any number of slices share it.
// `FrameVec` composes a handful of such slices into one logical frame
// ({header, payload, trailer}) without gluing them back together.
//
// Immutability is the contract that makes sharing safe: after publish()
// (or copy_of), nobody writes through a SharedBytes again. The refcount
// is non-atomic: the simulator is single-threaded by design (see
// DESIGN.md §3 and §9).
//
// None of this changes *modeled* cost: virtual-time charges for copies
// and DMA stay where they always were. SharedBytes only removes the
// physical memcpy/allocation the host performed alongside the charge.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "common/bytes.hpp"

namespace rubin {

/// Refcounted immutable byte buffer slice. Copying is O(1); the backing
/// allocation dies with its last slice. Empty SharedBytes (default
/// constructed or zero-length) own nothing and allocate nothing.
class SharedBytes {
 public:
  SharedBytes() noexcept = default;

  /// Allocates an *uninitialized* buffer of n bytes with unique
  /// ownership. Fill it through mutable_data(), then treat it as
  /// immutable (publish it by copying the handle around).
  static SharedBytes allocate(std::size_t n);

  /// One physical copy of `src` into a fresh buffer.
  static SharedBytes copy_of(ByteView src);

  SharedBytes(const SharedBytes& other) noexcept
      : ctrl_(other.ctrl_), data_(other.data_), size_(other.size_) {
    if (ctrl_ != nullptr) ++ctrl_->refs;
  }
  SharedBytes(SharedBytes&& other) noexcept
      : ctrl_(other.ctrl_), data_(other.data_), size_(other.size_) {
    other.ctrl_ = nullptr;
    other.data_ = nullptr;
    other.size_ = 0;
  }
  SharedBytes& operator=(const SharedBytes& other) noexcept {
    SharedBytes tmp(other);
    swap(tmp);
    return *this;
  }
  SharedBytes& operator=(SharedBytes&& other) noexcept {
    swap(other);
    return *this;
  }
  ~SharedBytes() { release(); }

  void swap(SharedBytes& other) noexcept {
    std::swap(ctrl_, other.ctrl_);
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
  }

  const std::uint8_t* data() const noexcept { return data_; }
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  ByteView view() const noexcept { return ByteView(data_, size_); }
  operator ByteView() const noexcept { return view(); }  // NOLINT: views are the lingua franca

  /// Write access for the fill-then-publish phase. Only legal while this
  /// handle is the sole owner of the whole buffer (fresh allocate()).
  std::uint8_t* mutable_data() noexcept;

  /// O(1) sub-slice sharing the same allocation; the slice keeps the
  /// backing buffer alive even if every full-buffer handle dies.
  /// Throws std::out_of_range when [offset, offset+len) overruns.
  SharedBytes slice(std::size_t offset, std::size_t len) const;

  /// Slice of everything from `offset` to the end.
  SharedBytes slice(std::size_t offset) const {
    return slice(offset, size_ - std::min(offset, size_));
  }

  /// Owners of the backing allocation (0 for empty). Test/audit hook.
  std::uint32_t ref_count() const noexcept {
    return ctrl_ != nullptr ? ctrl_->refs : 0;
  }

  /// Process-unique id of the backing allocation (0 for empty handles);
  /// slices share their parent's id. Ids are never reused, so id
  /// equality means "the same logical buffer" regardless of where the
  /// host heap happened to place it — the deterministic identity that
  /// address-keyed caches (e.g. the channel's send MR cache) need: heap
  /// addresses recycle between runs, allocation ids never do.
  std::uint64_t buffer_id() const noexcept {
    return ctrl_ != nullptr ? ctrl_->id : 0;
  }

  /// Offset of this view within its backing allocation (0 for empty).
  /// Together with buffer_id() this names a byte range deterministically.
  std::size_t buffer_offset() const noexcept {
    return ctrl_ != nullptr
               ? static_cast<std::size_t>(
                     data_ - (reinterpret_cast<const std::uint8_t*>(ctrl_) +
                              sizeof(Ctrl)))
               : 0;
  }

  /// Content equality (not identity).
  friend bool operator==(const SharedBytes& a, const SharedBytes& b) noexcept {
    return std::equal(a.data_, a.data_ + a.size_, b.data_, b.data_ + b.size_);
  }

 private:
  /// Header living at the front of the single allocation; data follows
  /// immediately after (alignment of the header covers byte data).
  struct Ctrl {
    std::uint32_t refs;
    std::uint32_t capacity;  // bytes of data following the header
    std::uint64_t id;        // process-unique allocation id (buffer_id())
  };

  SharedBytes(Ctrl* ctrl, const std::uint8_t* data, std::size_t size) noexcept
      : ctrl_(ctrl), data_(data), size_(size) {}

  /// Null handles are the common case on hot paths (a SendWr's FrameVec
  /// destroys kInlineSlices handles, most of them empty), so the null
  /// check inlines and only live handles pay the out-of-line refcount.
  void release() noexcept {
    if (ctrl_ != nullptr) release_live();
  }
  void release_live() noexcept;

  Ctrl* ctrl_ = nullptr;
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

/// A logical frame made of up to a few SharedBytes slices, in order. The
/// common shapes ({frame}, {skeleton, payload}, {skeleton, payload,
/// trailer}) fit the inline array; nothing ever spills to the heap —
/// exceeding the inline capacity throws (it would mean a layering bug,
/// not a bigger message).
class FrameVec {
 public:
  static constexpr std::size_t kInlineSlices = 4;

  FrameVec() noexcept = default;
  explicit FrameVec(SharedBytes whole) { append(std::move(whole)); }

  FrameVec(const FrameVec&) = default;
  FrameVec& operator=(const FrameVec&) = default;
  FrameVec(FrameVec&& other) noexcept
      : slices_(std::move(other.slices_)),
        count_(other.count_),
        total_(other.total_) {
    other.count_ = 0;
    other.total_ = 0;
  }
  FrameVec& operator=(FrameVec&& other) noexcept {
    slices_ = std::move(other.slices_);
    count_ = other.count_;
    total_ = other.total_;
    other.count_ = 0;
    other.total_ = 0;
    return *this;
  }
  ~FrameVec() = default;

  /// Appends a slice (empty slices are dropped — they carry no bytes and
  /// would only perturb iteration).
  void append(SharedBytes s);

  std::size_t slice_count() const noexcept { return count_; }
  const SharedBytes& slice_at(std::size_t i) const { return slices_[i]; }

  /// Total payload bytes across all slices.
  std::size_t total_size() const noexcept { return total_; }
  bool empty() const noexcept { return total_ == 0; }

  const SharedBytes* begin() const noexcept { return slices_.data(); }
  const SharedBytes* end() const noexcept { return slices_.data() + count_; }

  /// Physically gathers the slices into `out` (out.size() must be >=
  /// total_size()). Returns bytes written. The one place a FrameVec is
  /// allowed to flatten: filling a wire/pool buffer.
  std::size_t copy_to(MutByteView out) const;

  /// Gathers into a fresh single-allocation buffer (one physical copy).
  SharedBytes flatten() const;

 private:
  std::array<SharedBytes, kInlineSlices> slices_{};
  std::size_t count_ = 0;
  std::size_t total_ = 0;
};

}  // namespace rubin
