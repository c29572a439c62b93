// Core RDMA Verbs data types, mirroring libibverbs (ibv_sge, ibv_send_wr,
// ibv_wc, …) closely enough that code written against this library reads
// like an ibverbs program. This is the software RNIC the reproduction uses
// in place of the paper's Mellanox MT27520 (see DESIGN.md §2).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>

#include "common/shared_bytes.hpp"

namespace rubin::verbs {

class SharedReceiveQueue;

/// Memory-region access permissions (ibv_access_flags).
enum Access : std::uint32_t {
  kAccessLocalWrite = 1u << 0,   // NIC may DMA inbound data into the region
  kAccessRemoteRead = 1u << 1,   // remote peers may RDMA READ
  kAccessRemoteWrite = 1u << 2,  // remote peers may RDMA WRITE
};

/// Scatter/gather element: a slice of a registered memory region.
/// `addr` is a host virtual address inside the MR (as in real verbs).
struct Sge {
  std::uint64_t addr = 0;
  std::uint32_t length = 0;
  std::uint32_t lkey = 0;
};

/// Fixed-capacity scatter/gather list (ibv_send_wr.sg_list + num_sge).
/// Capacity matches FrameVec::kInlineSlices: a frame's slices map 1:1 onto
/// SGEs. Storage is a small-buffer optimization: the overwhelmingly common
/// one- and two-element shapes ({frame}, {header, payload}) live inline
/// and stay allocation-free — post_send copies WRs by value into scheduled
/// NIC work, so the hot-path copy must not touch the heap (the PR-2
/// contract, now scoped to lists of <= kInlineSges). Three- and
/// four-element lists (multi-slice one-sided frames — the cold path) spill
/// every element to a heap block, so iteration stays a contiguous pointer
/// range; copying a spilled list allocates. Exceeding kMaxSges throws: it
/// would mean a layering bug, not a bigger message. Implicitly convertible
/// from a single Sge so the common case reads exactly like ibverbs code
/// with num_sge == 1.
class SgeList {
 public:
  static constexpr std::size_t kMaxSges = 4;
  static constexpr std::size_t kInlineSges = 2;

  SgeList() noexcept = default;
  // NOLINTNEXTLINE(google-explicit-constructor): single-SGE WRs are the norm
  SgeList(const Sge& s) noexcept : count_(1) { inline_[0] = s; }

  SgeList(const SgeList& other) : count_(other.count_) {
    if (other.spill_ != nullptr) {
      spill_ = std::make_unique<Sge[]>(kMaxSges);
      for (std::size_t i = 0; i < count_; ++i) spill_[i] = other.spill_[i];
    } else {
      inline_ = other.inline_;
    }
  }
  SgeList& operator=(const SgeList& other) {
    SgeList tmp(other);
    swap(tmp);
    return *this;
  }
  SgeList(SgeList&& other) noexcept
      : inline_(other.inline_),
        spill_(std::move(other.spill_)),
        count_(other.count_) {
    other.count_ = 0;
  }
  SgeList& operator=(SgeList&& other) noexcept {
    swap(other);
    return *this;
  }
  ~SgeList() = default;

  void swap(SgeList& other) noexcept {
    std::swap(inline_, other.inline_);
    std::swap(spill_, other.spill_);
    std::swap(count_, other.count_);
  }

  void push_back(const Sge& s) {
    if (count_ == kMaxSges) {
      throw std::length_error("SgeList: more than kMaxSges slices");
    }
    if (count_ == kInlineSges && spill_ == nullptr) {
      spill_ = std::make_unique<Sge[]>(kMaxSges);
      for (std::size_t i = 0; i < kInlineSges; ++i) spill_[i] = inline_[i];
    }
    data()[count_++] = s;
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  Sge& operator[](std::size_t i) noexcept { return data()[i]; }
  const Sge& operator[](std::size_t i) const noexcept { return data()[i]; }

  Sge* begin() noexcept { return data(); }
  Sge* end() noexcept { return data() + count_; }
  const Sge* begin() const noexcept { return data(); }
  const Sge* end() const noexcept { return data() + count_; }

  /// Sum of the elements' lengths. Virtual-time charges are computed from
  /// this total with a single cost-function call, never per element —
  /// integer truncation per slice would break bit-identity with the
  /// flattened equivalent (the determinism pins depend on it).
  std::uint64_t total_length() const noexcept {
    const Sge* p = data();
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < count_; ++i) sum += p[i].length;
    return sum;
  }

 private:
  Sge* data() noexcept {
    return spill_ != nullptr ? spill_.get() : inline_.data();
  }
  const Sge* data() const noexcept {
    return spill_ != nullptr ? spill_.get() : inline_.data();
  }

  std::array<Sge, kInlineSges> inline_{};
  std::unique_ptr<Sge[]> spill_;
  std::uint32_t count_ = 0;
};

/// Work-request opcodes (subset of ibv_wr_opcode we need).
enum class Opcode : std::uint8_t {
  kSend,       // two-sided: consumes a receive WR at the responder
  kRdmaWrite,  // one-sided write, responder CPU not involved
  kRdmaRead,   // one-sided read
  kRecv,       // appears only in completions
};

/// Send-queue work request (ibv_send_wr).
struct SendWr {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  /// Scatter/gather list: the NIC reads the elements in order and the
  /// concatenation travels as one message (one WR, one completion,
  /// one receive consumed — exactly ibverbs semantics).
  SgeList sg_list;
  /// Generate a CQE for this WR. Selective signaling (paper §IV) posts
  /// most WRs unsignaled and signals every Nth to amortize completion
  /// handling; the send queue slot is only reclaimed at the next signaled
  /// completion, exactly like real hardware.
  bool signaled = true;
  /// Copy the payload into the WQE at post time (<= max_inline bytes):
  /// the NIC skips the payload DMA read and the buffer is reusable
  /// immediately after post_send returns.
  bool inline_data = false;
  /// Target for RDMA read/write.
  std::uint64_t remote_addr = 0;
  std::uint32_t rkey = 0;
  /// Zero-copy send: when set (for kSend/kRdmaWrite), the NIC transmits
  /// these refcounted slices instead of snapshotting the MR bytes at DMA
  /// time. The sg_list still describes valid registered regions of the
  /// same total length (protection checks and all virtual-time charges
  /// are unchanged); only the physical memcpy at the DMA point is elided.
  /// The immutability contract of SharedBytes supplies the "don't touch
  /// the buffer until completion" rule that hardware zero-copy already
  /// imposes. A multi-slice frame rides as-is — the gather happens on the
  /// wire, never in host memory.
  FrameVec shared_payload{};
};

/// Receive-queue work request.
struct RecvWr {
  std::uint64_t wr_id = 0;
  Sge sge;
  /// Zero-copy receive: deliver the inbound payload as a refcounted handle
  /// on the completion instead of physically DMA-copying it into the MR
  /// bytes. All checks and virtual-time charges (match, DMA, CQE) are
  /// unchanged; the MR region backing the sge is still claimed for the
  /// message's lifetime, its bytes just stay stale. Consumers that read
  /// the MR memory directly must leave this false.
  bool capture_payload = false;
};

/// Completion status (subset of ibv_wc_status).
enum class WcStatus : std::uint8_t {
  kSuccess,
  kLocalProtectionError,   // bad lkey / bounds / permissions at the poster
  kRemoteAccessError,      // bad rkey / bounds / permissions at the responder
  kRecvBufferTooSmall,     // inbound SEND larger than the posted receive
  kRnrRetryExceeded,       // responder never posted a receive
  kTransportRetryExceeded, // no ack within the retry budget (link dead?)
  kRemoteOperationError,   // responder QP was broken / gone
  kWorkRequestFlushed,     // QP went to error; outstanding WRs flushed
};

const char* to_string(WcStatus s) noexcept;

/// Completion-queue entry (ibv_wc).
struct Completion {
  std::uint64_t wr_id = 0;
  Opcode opcode = Opcode::kSend;
  WcStatus status = WcStatus::kSuccess;
  std::uint32_t byte_len = 0;  // bytes received (recv/read completions)
  std::uint32_t qp_num = 0;
  /// Receive payload handle, set only for recv completions whose RecvWr
  /// asked for capture_payload. Empty otherwise.
  SharedBytes payload{};
};

/// Queue-pair capabilities (ibv_qp_cap).
struct QpConfig {
  std::uint32_t max_send_wr = 128;
  std::uint32_t max_recv_wr = 128;
  /// Per-device limit also applies; see Device::max_inline().
  std::uint32_t max_inline = 256;
  /// Largest scatter/gather list accepted per send WR (ibv_qp_cap
  /// .max_send_sge). Posts exceeding it — or empty lists — are rejected
  /// with kInvalidSge; nothing is silently clamped.
  std::uint32_t max_sge = 4;
  /// RNR behaviour: how long an inbound SEND may wait for a receive WR,
  /// and how many times delivery is retried before the QP breaks.
  std::int64_t rnr_timeout_ns = 100 * 1000;  // 100 us
  std::uint32_t rnr_retries = 8;
  /// RC transport retry budget: a posted WR that has not completed within
  /// this time (frames lost — e.g. a network partition) moves the QP to
  /// the error state, as real RC does when retry_cnt is exhausted.
  /// 0 disables the timer. Must exceed the full RNR budget and any
  /// legitimate queueing delay (deep windows of large messages wait
  /// several ms for the wire). Real RC defaults are in the tens of ms.
  std::int64_t transport_retry_timeout_ns = 50 * 1000 * 1000;  // 50 ms
  /// Shared receive queue (verbs/srq.hpp). When set, this QP has no
  /// receive queue of its own: inbound SENDs consume SRQ work requests
  /// (posting receives to the QP is rejected), and max_recv_wr is
  /// ignored. The SRQ must belong to the same device and outlive the QP.
  /// Null — the default — keeps the fully-provisioned per-QP ring, and
  /// every code path is bit-identical to a build without SRQ support.
  SharedReceiveQueue* srq = nullptr;
};

enum class QpState : std::uint8_t { kInit, kReadyToSend, kError };

/// Result of a post_send/post_recv call (ibv returns errno; we name them).
enum class PostResult : std::uint8_t {
  kOk,
  kQueueFull,      // ENOMEM: no free WQE slots
  kInvalidState,   // QP not connected / in error
  kTooLarge,       // inline payload exceeds max_inline
  kInvalidSge,     // EINVAL: empty sg_list or more entries than max_sge
};

const char* to_string(PostResult r) noexcept;

}  // namespace rubin::verbs
