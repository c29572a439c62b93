// RdmaChannel / RdmaServerChannel — the RUBIN abstractions of the Java NIO
// SocketChannel / ServerSocketChannel over RDMA queue pairs (paper §III-B).
//
// A channel is message-oriented (one message == one work request == one
// pooled buffer), non-blocking (read/write transfer what they can and
// return), and carries a unique connection identifier the selector uses to
// match events to channels. All §IV optimizations live here:
//   * pre-registered send/receive buffer pools, receives pre-posted;
//   * batched WR posting (write_batch -> one doorbell);
//   * selective signaling (signal every Nth send, reclaim in order);
//   * inline sends below a threshold;
//   * cached registration of application send buffers (zero-copy send);
//   * the receive-side copy the paper identifies as the large-message
//     bottleneck — removable with ChannelConfig::zero_copy_receive to
//     measure the paper's planned future optimization.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/bytes.hpp"
#include "common/ring_buffer.hpp"
#include "common/shared_bytes.hpp"
#include "rubin/buffer_pool.hpp"
#include "rubin/config.hpp"
#include "sim/event.hpp"
#include "sim/task.hpp"
#include "verbs/cm.hpp"
#include "verbs/device.hpp"

namespace rubin::nio {

class RubinContext;
class RdmaSelector;
class RdmaServerChannel;

/// Channel statistics for the ablation benches.
struct ChannelStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_received = 0;
  std::uint64_t inline_sends = 0;
  std::uint64_t zero_copy_sends = 0;
  std::uint64_t pool_copy_sends = 0;
  std::uint64_t signaled_completions = 0;
  std::uint64_t doorbells = 0;
  std::uint64_t send_registrations = 0;  // zero-copy cache misses
  std::uint64_t receive_copies = 0;
  /// Multi-slice frames posted as true scatter/gather SGE lists — the
  /// sends where the old per-message gather memcpy no longer happens.
  std::uint64_t gather_sends = 0;
};

class RdmaChannel : public std::enable_shared_from_this<RdmaChannel> {
 public:
  enum class State : std::uint8_t { kConnecting, kEstablished, kClosed };

  State state() const noexcept { return state_; }
  bool is_open() const noexcept { return state_ != State::kClosed; }
  /// Unique connection identifier (paper: "every created channel is
  /// associated with a unique connection identifier").
  std::uint64_t id() const noexcept { return id_; }
  const ChannelConfig& config() const noexcept { return cfg_; }
  const ChannelStats& stats() const noexcept { return stats_; }
  net::HostId remote_host() const noexcept { return qp_->remote_host(); }

  /// Sends one message. Returns msg.size() on success, 0 when the channel
  /// is not established or out of send capacity (retry on kOpSend
  /// readiness). Throws std::invalid_argument for messages larger than
  /// the configured buffer size.
  ///
  /// Lifetime: with zero_copy_send (default), messages above the inline
  /// threshold are DMA-read from the caller's buffer *after* write
  /// returns — the buffer must stay alive and unmodified until the WR
  /// completes (in practice: until the peer has consumed the message).
  /// Inline and pool-copy sends have no such requirement. This is the
  /// standard RDMA zero-copy contract; Reptor-style transports that
  /// cannot guarantee it disable zero_copy_send and pay the copy, which
  /// is exactly the trade-off measured in Fig. 4.
  ///
  /// rubinlint enforces this contract statically (coro-stack-wr,
  /// DESIGN.md §10): a buffer owned by the sending coroutine's frame is
  /// flagged — hoist it to the caller, or use the SharedBytes overload
  /// below, which pins the payload for the WR's lifetime.
  sim::Task<std::size_t> write(ByteView msg);

  /// Zero-copy variant: the refcounted handle rides the WR all the way to
  /// the peer, so neither the inline WQE copy, the pool-staging copy, nor
  /// the NIC DMA snapshot is physically performed — their virtual-time
  /// charges are unchanged. The buffer-lifetime caveat of zero_copy_send
  /// disappears: the handle pins the payload until the NIC is done.
  sim::Task<std::size_t> write(SharedBytes msg);

  /// Sends up to msgs.size() messages with a single doorbell (§IV batch
  /// posting); stops early when capacity runs out. Returns the number of
  /// messages accepted.
  sim::Task<std::size_t> write_batch(std::vector<ByteView> msgs);

  /// Zero-copy batch; see write(SharedBytes).
  sim::Task<std::size_t> write_batch(std::vector<SharedBytes> msgs);

  /// Scatter/gather send: a multi-slice frame is posted as one WR whose
  /// SGE list maps 1:1 onto the slices — the gather memcpy the flattening
  /// path performed (and charged) does not happen at all. Single-slice
  /// frames take exactly the write(SharedBytes) path. The peer receives
  /// one contiguous message either way.
  sim::Task<std::size_t> write(FrameVec msg);

  /// Scatter/gather batch; see write(FrameVec).
  sim::Task<std::size_t> write_batch(std::vector<FrameVec> msgs);

  /// Receives one message into `out`. Returns its size, or 0 when no
  /// message is pending. Throws std::invalid_argument if `out` is smaller
  /// than the pending message (message-oriented, no partial reads).
  sim::Task<std::size_t> read(MutByteView out);

  /// Receives one message as a refcounted handle (empty handle when no
  /// message is pending). Identical virtual-time cost to read() — the
  /// receive-side copy the paper measures is still *charged* under
  /// !zero_copy_receive — but the physical copy-out is elided.
  sim::Task<SharedBytes> read_shared();

  /// Messages currently buffered and readable without blocking.
  std::size_t readable_messages() noexcept;
  /// True when write() would accept a message right now.
  bool writable() noexcept;
  /// Free send-queue slots right now (0 while not established) — the
  /// queue-depth pressure input of the transport selector.
  std::uint32_t send_slots_free() noexcept;
  /// Side-effect-free variant of send_slots_free(): reports the slots as
  /// of the last pump, without processing completions. A selector reading
  /// this (e.g. per-frame picks inside a flush loop) perturbs nothing —
  /// pumping here would shift the selective-signaling cadence and break
  /// the fixed-policy bit-identity guarantee.
  std::uint32_t send_slots_hint() const noexcept;

  /// Standalone (selector-less) helper: waits until a message arrives or
  /// the channel dies, then reads it. Used by the Fig-3 micro-benchmark.
  sim::Task<std::size_t> read_await(MutByteView out);

  /// Closes the channel; the peer observes kOpReceive readiness with
  /// read() == 0 and state() == kClosed.
  void close();

  /// First non-success completion status observed on either CQ (kSuccess
  /// while the channel is healthy). A failed channel is closed — the error
  /// surfaces as selector readiness, never as a silent success.
  verbs::WcStatus last_error() const noexcept { return last_error_; }

  ~RdmaChannel();

 private:
  friend class RubinContext;
  friend class RdmaSelector;
  friend class RdmaServerChannel;

  RdmaChannel(RubinContext& ctx, std::uint64_t id, ChannelConfig cfg);

  /// Late initialization: QP + pools (needs shared_from_this for sinks).
  void init_qp();
  void on_cm_event(const verbs::CmEvent& e);
  /// Charges the app thread for completion events consumed since the last
  /// operation (fd read + ack).
  sim::Task<void> ack_events();
  /// Drains both CQs into channel state (filled receives, reclaimed send
  /// slots) and re-arms them.
  void pump();
  void notify();
  /// Error path shared by pump() and failed posts: records the first
  /// failure status, reclaims every in-flight WR (the hardware will never
  /// complete them on a dead QP), and closes — which is what makes the
  /// selector report the channel instead of the error vanishing.
  void fail(verbs::WcStatus status);
  /// Returns outstanding WRs' pool slots and settles the WR accounting.
  void flush_outstanding();

  struct OutstandingSend {
    std::int32_t pool_slot = -1;  // -1: inline or zero-copy (no pool slot)
    bool signaled = false;
  };
  struct FilledRecv {
    std::uint32_t slot = 0;
    std::uint32_t len = 0;
    /// Captured payload handle (channel receives always capture; the pool
    /// slot stays claimed until re-posted but its bytes are not written).
    SharedBytes payload;
  };

  /// Builds the WR for one message, charging the caller's CPU as needed.
  /// Returns false when capacity is exhausted (nothing charged). When
  /// `handle` is non-null and non-empty, the WR carries it as a zero-copy
  /// payload (same charges, no physical staging copies).
  sim::Task<bool> stage_message(ByteView msg, const SharedBytes* handle,
                                std::vector<verbs::SendWr>& out);
  /// Multi-slice sibling of stage_message: builds one WR whose SGE list
  /// covers the frame's slices (no gather copy, physical or charged).
  sim::Task<bool> stage_frame(const FrameVec& frame,
                              std::vector<verbs::SendWr>& out);
  /// Capacity gate of the staging paths: true when no further WR fits
  /// behind the `staged` ones already built for this batch.
  bool send_queue_full(std::size_t staged) const noexcept;
  /// Shared epilogue of the staging paths: selective signaling, the
  /// outstanding-WR accounting, and the batch hand-off.
  void enqueue_staged(verbs::SendWr&& wr, OutstandingSend rec,
                      std::vector<verbs::SendWr>& out);
  /// Shared epilogue of read()/read_shared(): charges the receive-side
  /// copy when configured and recycles the receive buffer.
  sim::Task<void> finish_read(const FilledRecv& msg);

  /// Single-message write body (the hot path of both write() overloads):
  /// identical charge sequence to write_batch with one message, minus
  /// the wrapper vector.
  sim::Task<std::size_t> write_one(ByteView msg, const SharedBytes* handle);

  /// Hands a write path the channel's reusable WR staging vector, or a
  /// throwaway local one when another write on this channel is already
  /// mid-flight (write calls suspend, so overlap is possible in
  /// principle even though every current caller serializes). The member
  /// vector keeps its capacity across calls, so the steady-state write
  /// path stages WRs with no per-call vector allocation.
  struct StagingLease {
    explicit StagingLease(RdmaChannel& ch)
        : ch_(ch), owned_(!ch.staging_busy_) {
      if (owned_) {
        ch.staging_busy_ = true;
        ch.staging_.clear();
      }
    }
    ~StagingLease() {
      if (owned_) ch_.staging_busy_ = false;
    }
    StagingLease(const StagingLease&) = delete;
    StagingLease& operator=(const StagingLease&) = delete;
    std::vector<verbs::SendWr>& wrs() noexcept {
      return owned_ ? ch_.staging_ : local_;
    }

   private:
    RdmaChannel& ch_;
    bool owned_;
    std::vector<verbs::SendWr> local_;
  };

  RubinContext* ctx_;
  std::uint64_t id_;
  ChannelConfig cfg_;
  State state_ = State::kConnecting;
  verbs::WcStatus last_error_ = verbs::WcStatus::kSuccess;

  verbs::CompletionChannel* comp_channel_ = nullptr;
  verbs::CompletionQueue* send_cq_ = nullptr;
  verbs::CompletionQueue* recv_cq_ = nullptr;
  std::shared_ptr<verbs::QueuePair> qp_;
  std::unique_ptr<BufferPool> send_pool_;
  std::unique_ptr<BufferPool> recv_pool_;

  GrowingRing<OutstandingSend> outstanding_;
  /// Audit: work-request accounting. Every accepted send increments
  /// posted_wrs_; every reclaimed OutstandingSend increments
  /// reclaimed_wrs_. Invariant: outstanding_.size() == posted - reclaimed
  /// and never exceeds the QP's send queue depth.
  std::uint64_t posted_wrs_ = 0;
  std::uint64_t reclaimed_wrs_ = 0;
  /// Completion events delivered but not yet acknowledged by the
  /// application thread; the next channel operation pays event_ack_cpu
  /// for each (selective signaling keeps this small).
  std::uint32_t unacked_events_ = 0;
  GrowingRing<FilledRecv> filled_;
  std::uint32_t sends_since_signal_ = 0;
  std::uint64_t conn_id_ = 0;  // CM connection, 0 until known

  /// Cached MRs for zero-copy sends. Handle-backed sends key by
  /// {SharedBytes::buffer_id(), byte offset}: allocation ids are never
  /// reused, so the hit pattern is a pure function of the logical
  /// message sequence — a heap address would alias recycled buffers and
  /// make the registration *charge* depend on malloc history (a real
  /// run-to-run nondeterminism the FaultLab explorer caught).
  /// Raw ByteView sends (no handle) keep the classic address key
  /// {0, address}: that models DiSNI's cache for app-owned long-lived
  /// buffers, which are address-stable for the channel's lifetime.
  using MrKey = std::pair<std::uint64_t, std::uint64_t>;
  std::map<MrKey, verbs::MemoryRegion*> send_mr_cache_;

  /// Reusable WR staging for the write paths (see StagingLease).
  std::vector<verbs::SendWr> staging_;
  bool staging_busy_ = false;

  /// Selector hookup (null when unregistered).
  std::function<void()> selector_notify_;
  /// Standalone wakeup for read_await().
  sim::Event activity_;

  ChannelStats stats_;
};

/// Listening channel. kOpConnect readiness = pending connection requests;
/// kOpAccept readiness = accepted connections that finished establishing.
class RdmaServerChannel
    : public std::enable_shared_from_this<RdmaServerChannel> {
 public:
  std::uint64_t id() const noexcept { return id_; }
  std::uint16_t port() const noexcept { return port_; }

  std::size_t pending_requests() const noexcept { return pending_.size(); }

  /// Accepts the oldest pending request: allocates the server-side channel
  /// (QP + pools, receives pre-posted) and completes the CM handshake.
  /// The channel surfaces on next_established() once the handshake ends.
  /// Returns nullptr when nothing is pending.
  std::shared_ptr<RdmaChannel> accept();

  /// Connections whose establishment finished but has not been consumed.
  std::size_t established_count() const noexcept { return established_.size(); }
  std::shared_ptr<RdmaChannel> next_established();

  void close();

 private:
  friend class RubinContext;
  friend class RdmaSelector;

  RdmaServerChannel(RubinContext& ctx, std::uint64_t id, std::uint16_t port,
                    ChannelConfig cfg);
  void on_cm_event(const verbs::CmEvent& e);
  /// Charges the app thread for completion events consumed since the last
  /// operation (fd read + ack).
  sim::Task<void> ack_events();
  void notify();

  RubinContext* ctx_;
  std::uint64_t id_;
  std::uint16_t port_;
  ChannelConfig cfg_;
  std::shared_ptr<verbs::CmListener> listener_;
  GrowingRing<verbs::CmEvent> pending_;  // unaccepted kConnectRequest events
  std::map<std::uint64_t, std::shared_ptr<RdmaChannel>> accepting_;
  GrowingRing<std::shared_ptr<RdmaChannel>> established_;
  std::function<void()> selector_notify_;
  bool closed_ = false;
};

}  // namespace rubin::nio
