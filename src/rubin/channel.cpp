#include "rubin/channel.hpp"

#include <algorithm>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "common/audit.hpp"
#include "rubin/context.hpp"

namespace rubin::nio {

// --------------------------------------------------------- RdmaChannel ---

RdmaChannel::RdmaChannel(RubinContext& ctx, std::uint64_t id,
                         ChannelConfig cfg)
    : ctx_(&ctx), id_(id), cfg_(cfg), activity_(ctx.simulator()) {}

RdmaChannel::~RdmaChannel() {
  // Return pool slots still riding on in-flight WRs: the hardware can no
  // longer complete them once the QP dies with the channel, and the
  // pool's leak-at-destruction audit should only report slots the
  // application truly lost.
  flush_outstanding();
  for (auto& [key, mr] : send_mr_cache_) ctx_->pd().deregister(mr);
}

void RdmaChannel::flush_outstanding() {
  while (!outstanding_.empty()) {
    const OutstandingSend o = outstanding_.pop();
    ++reclaimed_wrs_;
    if (o.pool_slot >= 0 && send_pool_ != nullptr) {
      send_pool_->release(static_cast<std::uint32_t>(o.pool_slot));
    }
  }
}

void RdmaChannel::fail(verbs::WcStatus status) {
  if (last_error_ == verbs::WcStatus::kSuccess) {
    last_error_ = status;
    RUBIN_AUDIT_COUNT("channel.completion_errors", 1);
  }
  flush_outstanding();
  close();
}

void RdmaChannel::init_qp() {
  auto& dev = ctx_->device();
  // Config validation happens here, before any resource exists: an inline
  // threshold the device cannot honour used to be silently clamped by the
  // QP cap, which made every "inline" send above the device limit fail at
  // post time instead — reject it up front with a message that names both
  // numbers.
  if (cfg_.inline_threshold > dev.max_inline()) {
    throw std::invalid_argument(
        "ChannelConfig: inline_threshold " +
        std::to_string(cfg_.inline_threshold) +
        " exceeds the device max_inline " + std::to_string(dev.max_inline()) +
        " (lower the threshold or disable inlining with 0)");
  }
  comp_channel_ = dev.create_channel();
  send_cq_ = dev.create_cq(2 * cfg_.buffer_count, comp_channel_);
  recv_cq_ = dev.create_cq(2 * cfg_.buffer_count, comp_channel_);

  verbs::QpConfig qc;
  qc.max_send_wr = cfg_.buffer_count;
  qc.max_recv_wr = cfg_.buffer_count;
  qc.max_inline = static_cast<std::uint32_t>(cfg_.inline_threshold);
  qc.max_sge = verbs::SgeList::kMaxSges;
  qc.transport_retry_timeout_ns = cfg_.transport_retry_timeout_ns;
  qp_ = dev.create_qp(ctx_->pd(), *send_cq_, *recv_cq_, qc);

  send_pool_ = std::make_unique<BufferPool>(ctx_->pd(), cfg_.buffer_count,
                                            cfg_.buffer_size, 0u);
  recv_pool_ = std::make_unique<BufferPool>(
      ctx_->pd(), cfg_.buffer_count, cfg_.buffer_size,
      verbs::kAccessLocalWrite);

  // Pre-post the whole receive pool; wr_id == pool slot. Channel receives
  // capture the payload handle: the pool slot still backs the WR (flow
  // control and all charges are pool-shaped), but the inbound bytes flow
  // to read()/read_shared() without the physical DMA copy into the slot.
  std::vector<verbs::RecvWr> recvs;
  recvs.reserve(cfg_.buffer_count);
  for (std::uint32_t slot = 0; slot < cfg_.buffer_count; ++slot) {
    recvs.push_back(verbs::RecvWr{
        slot,
        recv_pool_->sge(slot, static_cast<std::uint32_t>(cfg_.buffer_size)),
        /*capture_payload=*/true});
  }
  (void)qp_->post_recv_now(std::move(recvs));

  // Completion events pump the channel and wake whoever is waiting.
  auto self = weak_from_this();
  comp_channel_->set_sink([self](verbs::CompletionQueue*) {
    if (auto ch = self.lock()) {
      ++ch->unacked_events_;  // paid by the app thread on its next op
      ch->pump();
      ch->notify();
    }
  });
  send_cq_->req_notify();
  recv_cq_->req_notify();
}

void RdmaChannel::on_cm_event(const verbs::CmEvent& e) {
  switch (e.type) {
    case verbs::CmEventType::kEstablished:
      state_ = State::kEstablished;
      break;
    case verbs::CmEventType::kRejected:
    case verbs::CmEventType::kDisconnected:
      state_ = State::kClosed;
      break;
    case verbs::CmEventType::kConnectRequest:
      break;  // server-channel concern
  }
  notify();
}

void RdmaChannel::pump() {
  if (send_cq_ == nullptr) return;
  for (const verbs::Completion& c : send_cq_->poll(64)) {
    if (c.status != verbs::WcStatus::kSuccess) {
      fail(c.status);
      continue;
    }
    // Flush residue: a success CQE polled after a failure in the same
    // batch has no outstanding WR left to match (fail() reclaimed them).
    if (state_ == State::kClosed) continue;
    ++stats_.signaled_completions;
    // In-order reclamation: this signaled completion covers every earlier
    // unsignaled WR (selective signaling, §IV).
    bool matched_signaled = false;
    while (!outstanding_.empty()) {
      const OutstandingSend done = outstanding_.pop();
      ++reclaimed_wrs_;
      if (done.pool_slot >= 0) {
        send_pool_->release(static_cast<std::uint32_t>(done.pool_slot));
      }
      if (done.signaled) {
        matched_signaled = true;
        break;
      }
    }
    // Completions are delivered in order, so every successful signaled
    // completion must map onto the oldest signaled WR still outstanding;
    // running dry instead means posted/reclaimed accounting broke.
    RUBIN_AUDIT_ASSERT("channel", matched_signaled,
                       "signaled completion with no signaled WR outstanding");
  }
  for (const verbs::Completion& c : recv_cq_->poll(64)) {
    if (c.status != verbs::WcStatus::kSuccess) {
      fail(c.status);
      continue;
    }
    if (state_ == State::kClosed) continue;
    filled_.push(FilledRecv{static_cast<std::uint32_t>(c.wr_id), c.byte_len,
                            c.payload});
    ++stats_.messages_received;
  }
  send_cq_->req_notify();
  recv_cq_->req_notify();
}

sim::Task<void> RdmaChannel::ack_events() {
  if (unacked_events_ == 0) co_return;
  const std::uint32_t n = unacked_events_;
  unacked_events_ = 0;
  co_await ctx_->simulator().sleep(
      static_cast<sim::Time>(n) * ctx_->cost().event_ack_cpu);
}

void RdmaChannel::notify() {
  activity_.set();
  activity_.reset();  // edge semantics: wake current waiters only
  if (selector_notify_) selector_notify_();
}

sim::Task<bool> RdmaChannel::stage_message(ByteView msg,
                                           const SharedBytes* handle,
                                           std::vector<verbs::SendWr>& out) {
  const bool zero_copy = handle != nullptr && !handle->empty();
  auto& sim = ctx_->simulator();
  const auto& cost = ctx_->cost();
  if (msg.size() > cfg_.buffer_size) {
    throw std::invalid_argument("RdmaChannel::write: message exceeds buffer_size");
  }
  if (send_queue_full(out.size())) co_return false;

  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kSend;
  wr.wr_id = stats_.messages_sent;

  const bool inlined =
      cfg_.inline_threshold > 0 && msg.size() <= cfg_.inline_threshold;
  OutstandingSend rec;
  if (inlined) {
    // Inline: no pool buffer, no registration; the post copies the bytes
    // (physically elided when a handle is attached — post_send still
    // charges the WQE copy).
    wr.inline_data = true;
    wr.sg_list = verbs::Sge{reinterpret_cast<std::uint64_t>(msg.data()),
                            static_cast<std::uint32_t>(msg.size()), 0};
    if (zero_copy) wr.shared_payload.append(*handle);
    ++stats_.inline_sends;
  } else if (cfg_.zero_copy_send) {
    // Register (or reuse) the application buffer itself (§IV). See the
    // send_mr_cache_ declaration for why handle-backed sends key by
    // allocation id instead of address.
    const MrKey key =
        zero_copy
            ? MrKey{handle->buffer_id(),
                    handle->buffer_offset() +
                        static_cast<std::uint64_t>(msg.data() -
                                                   handle->data())}
            : MrKey{0, reinterpret_cast<std::uint64_t>(msg.data())};
    verbs::MemoryRegion*& cached = send_mr_cache_[key];
    if (cached == nullptr || cached->length() < msg.size()) {
      if (cached != nullptr) ctx_->pd().deregister(cached);
      co_await sim.sleep(cost.mr_register_time(msg.size()));
      cached = ctx_->pd().register_memory(
          MutByteView(const_cast<std::uint8_t*>(msg.data()), msg.size()), 0u);
      ++stats_.send_registrations;
    }
    wr.sg_list = verbs::Sge{reinterpret_cast<std::uint64_t>(msg.data()),
                            static_cast<std::uint32_t>(msg.size()),
                            cached->lkey()};
    if (zero_copy) wr.shared_payload.append(*handle);
    ++stats_.zero_copy_sends;
  } else {
    // Copy into a pooled, pre-registered buffer. The slot and the copy
    // charge model DiSNI's staging; with a handle the physical memcpy is
    // elided (the slot is still held for the WR's lifetime, so capacity
    // behaves identically).
    const auto slot = send_pool_->acquire();
    if (!slot) co_return false;
    co_await sim.sleep(cost.copy_time(msg.size()));
    if (zero_copy) {
      wr.shared_payload.append(*handle);
    } else {
      RUBIN_AUDIT_COUNT("datapath.copy_bytes", msg.size());
      std::memcpy(send_pool_->view(*slot).data(), msg.data(), msg.size());
    }
    wr.sg_list = send_pool_->sge(*slot, static_cast<std::uint32_t>(msg.size()));
    rec.pool_slot = static_cast<std::int32_t>(*slot);
    ++stats_.pool_copy_sends;
  }

  enqueue_staged(std::move(wr), rec, out);
  co_return true;
}

bool RdmaChannel::send_queue_full(std::size_t staged) const noexcept {
  // Slots consumed by WRs already staged in this batch are not visible in
  // send_slots_free() until the post, so subtract them here. The QP frees
  // slots as soon as a signaled WR completes, but outstanding_ retires
  // them only when pump() polls that CQE — and staging may suspend (copy
  // or registration charges) while completions land. Gate on both, so a
  // refused writer waits for the completion event that pumps the CQE.
  return qp_->send_slots_free() <= staged ||
         outstanding_.size() >= cfg_.buffer_count;
}

void RdmaChannel::enqueue_staged(verbs::SendWr&& wr, OutstandingSend rec,
                                 std::vector<verbs::SendWr>& out) {
  // Selective signaling: every Nth send requests a completion; also signal
  // when the send queue is nearly exhausted so slots always come back.
  ++sends_since_signal_;
  const bool low_slots = qp_->send_slots_free() <= out.size() + 2;
  wr.signaled = cfg_.signal_interval <= 1 ||
                sends_since_signal_ >= cfg_.signal_interval || low_slots;
  if (wr.signaled) sends_since_signal_ = 0;
  rec.signaled = wr.signaled;
  // Selective-signaling cadence: an unsignaled run longer than the
  // configured interval can never be reclaimed promptly and will wedge
  // the send queue.
  RUBIN_AUDIT_ASSERT(
      "channel",
      sends_since_signal_ < std::max<std::uint32_t>(cfg_.signal_interval, 1),
      "unsignaled send run exceeds the signal interval");

  outstanding_.push(rec);
  ++posted_wrs_;
  RUBIN_AUDIT_ASSERT("channel", outstanding_.size() <= cfg_.buffer_count,
                     "outstanding WRs exceed the send queue depth (" +
                         std::to_string(outstanding_.size()) + " > " +
                         std::to_string(cfg_.buffer_count) + ")");
  out.push_back(std::move(wr));
  ++stats_.messages_sent;
}

sim::Task<bool> RdmaChannel::stage_frame(const FrameVec& frame,
                                         std::vector<verbs::SendWr>& out) {
  if (frame.slice_count() <= 1) {
    // Degenerate frames take the classic single-SGE path and stay
    // bit-identical to a SharedBytes write.
    SharedBytes whole =
        frame.slice_count() == 1 ? frame.slice_at(0) : SharedBytes{};
    co_return co_await stage_message(whole.view(), &whole, out);
  }
  const std::size_t total = frame.total_size();
  if (total > cfg_.buffer_size) {
    throw std::invalid_argument(
        "RdmaChannel::write: frame exceeds buffer_size");
  }
  if (send_queue_full(out.size())) co_return false;

  verbs::SendWr wr;
  wr.opcode = verbs::Opcode::kSend;
  wr.wr_id = stats_.messages_sent;

  OutstandingSend rec;
  const bool inlined =
      cfg_.inline_threshold > 0 && total <= cfg_.inline_threshold;
  if (inlined) {
    // Inline gather: the CPU reads the slices straight into the WQE
    // (IBV_SEND_INLINE ignores lkeys); post_send charges the WQE copy
    // over the total, and the handles elide the physical copy.
    wr.inline_data = true;
    for (const SharedBytes& s : frame) {
      wr.sg_list.push_back(
          verbs::Sge{reinterpret_cast<std::uint64_t>(s.data()),
                     static_cast<std::uint32_t>(s.size()), 0});
    }
    wr.shared_payload = frame;
    ++stats_.inline_sends;
  } else {
    // True scatter/gather post — the tentpole. The pool slot donates
    // registered address space for the SGE list (a registered arena, as
    // real zero-copy stacks allocate from) and the refcounted slices ride
    // the WR; the NIC DMA-gathers the elements directly. The old pool
    // path's staging memcpy — its copy_time charge *and* the physical
    // copy counted in datapath.copy_bytes — does not happen at all:
    // that memcpy is the "last gather copy" this path removes.
    const auto slot = send_pool_->acquire();
    if (!slot) co_return false;
    const verbs::Sge whole =
        send_pool_->sge(*slot, static_cast<std::uint32_t>(total));
    std::uint64_t addr = whole.addr;
    for (const SharedBytes& s : frame) {
      wr.sg_list.push_back(verbs::Sge{
          addr, static_cast<std::uint32_t>(s.size()), whole.lkey});
      addr += s.size();
    }
    wr.shared_payload = frame;
    rec.pool_slot = static_cast<std::int32_t>(*slot);
    ++stats_.gather_sends;
  }

  enqueue_staged(std::move(wr), rec, out);
  co_return true;
}

// The single-message writes inline the batch prologue/epilogue instead
// of wrapping the message in a one-element vector: they are the
// closed-loop hot path, and the wrapper vector was pure churn. The
// charge sequence is identical to write_batch with one message.
sim::Task<std::size_t> RdmaChannel::write(ByteView msg) {
  co_return co_await write_one(msg, nullptr);
}

sim::Task<std::size_t> RdmaChannel::write(SharedBytes msg) {
  co_return co_await write_one(msg.view(), &msg);
}

sim::Task<std::size_t> RdmaChannel::write_one(ByteView msg,
                                              const SharedBytes* handle) {
  co_await ack_events();
  pump();
  RUBIN_AUDIT_ASSERT("channel",
                     outstanding_.size() == posted_wrs_ - reclaimed_wrs_,
                     "posted/reclaimed WR accounting diverged from the "
                     "outstanding queue");
  if (state_ != State::kEstablished) {
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }

  StagingLease lease(*this);
  std::vector<verbs::SendWr>& wrs = lease.wrs();
  if (!co_await stage_message(msg, handle, wrs) || wrs.empty()) {
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }

  ++stats_.doorbells;
  const verbs::PostResult r =
      co_await qp_->post_send(std::span<verbs::SendWr>(wrs));
  if (r != verbs::PostResult::kOk) {
    fail(verbs::WcStatus::kWorkRequestFlushed);
    co_return 0;
  }
  co_return msg.size();
}

sim::Task<std::size_t> RdmaChannel::write_batch(std::vector<ByteView> msgs) {
  co_await ack_events();
  pump();
  RUBIN_AUDIT_ASSERT("channel",
                     outstanding_.size() == posted_wrs_ - reclaimed_wrs_,
                     "posted/reclaimed WR accounting diverged from the "
                     "outstanding queue");
  if (state_ != State::kEstablished || msgs.empty()) {
    // Even a failed call costs CPU — and guarantees that "retry until
    // writable" loops always advance virtual time (no livelock).
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }

  StagingLease lease(*this);
  std::vector<verbs::SendWr>& wrs = lease.wrs();
  wrs.reserve(msgs.size());
  std::size_t accepted = 0;
  for (const ByteView msg : msgs) {
    if (!co_await stage_message(msg, nullptr, wrs)) break;
    ++accepted;
  }
  if (wrs.empty()) {
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }

  ++stats_.doorbells;
  const verbs::PostResult r =
      co_await qp_->post_send(std::span<verbs::SendWr>(wrs));
  if (r != verbs::PostResult::kOk) {
    // Capacity was checked per message; a failure here means the QP died.
    // The staged WRs were never posted and will never complete.
    fail(verbs::WcStatus::kWorkRequestFlushed);
    co_return 0;
  }
  co_return accepted;
}

sim::Task<std::size_t> RdmaChannel::write_batch(std::vector<SharedBytes> msgs) {
  co_await ack_events();
  pump();
  RUBIN_AUDIT_ASSERT("channel",
                     outstanding_.size() == posted_wrs_ - reclaimed_wrs_,
                     "posted/reclaimed WR accounting diverged from the "
                     "outstanding queue");
  if (state_ != State::kEstablished || msgs.empty()) {
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }

  StagingLease lease(*this);
  std::vector<verbs::SendWr>& wrs = lease.wrs();
  wrs.reserve(msgs.size());
  std::size_t accepted = 0;
  for (const SharedBytes& msg : msgs) {
    if (!co_await stage_message(msg.view(), &msg, wrs)) break;
    ++accepted;
  }
  if (wrs.empty()) {
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }

  ++stats_.doorbells;
  const verbs::PostResult r =
      co_await qp_->post_send(std::span<verbs::SendWr>(wrs));
  if (r != verbs::PostResult::kOk) {
    fail(verbs::WcStatus::kWorkRequestFlushed);
    co_return 0;
  }
  co_return accepted;
}

sim::Task<std::size_t> RdmaChannel::write(FrameVec msg) {
  const std::size_t len = msg.total_size();
  std::vector<FrameVec> one;
  one.push_back(std::move(msg));
  const std::size_t n = co_await write_batch(std::move(one));
  co_return n == 1 ? len : 0;
}

sim::Task<std::size_t> RdmaChannel::write_batch(std::vector<FrameVec> msgs) {
  co_await ack_events();
  pump();
  RUBIN_AUDIT_ASSERT("channel",
                     outstanding_.size() == posted_wrs_ - reclaimed_wrs_,
                     "posted/reclaimed WR accounting diverged from the "
                     "outstanding queue");
  if (state_ != State::kEstablished || msgs.empty()) {
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }

  StagingLease lease(*this);
  std::vector<verbs::SendWr>& wrs = lease.wrs();
  wrs.reserve(msgs.size());
  std::size_t accepted = 0;
  for (const FrameVec& msg : msgs) {
    if (!co_await stage_frame(msg, wrs)) break;
    ++accepted;
  }
  if (wrs.empty()) {
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }

  ++stats_.doorbells;
  const verbs::PostResult r =
      co_await qp_->post_send(std::span<verbs::SendWr>(wrs));
  if (r != verbs::PostResult::kOk) {
    fail(verbs::WcStatus::kWorkRequestFlushed);
    co_return 0;
  }
  co_return accepted;
}

sim::Task<void> RdmaChannel::finish_read(const FilledRecv& msg) {
  auto& sim = ctx_->simulator();
  const auto& cost = ctx_->cost();
  if (!cfg_.zero_copy_receive) {
    // The receive-side copy (paper §IV): DiSNI pool buffers and the
    // application's buffers are incompatible, so received data is copied
    // out. This is the measured large-message degradation in Figs. 3/4,
    // and it stays *charged* even on handle-based reads — removing it is
    // the paper's future work, gated behind zero_copy_receive.
    co_await sim.sleep(cost.copy_time(msg.len));
    ++stats_.receive_copies;
  }
  // Recycle the buffer: re-post the receive for this slot.
  (void)co_await qp_->post_recv_one(verbs::RecvWr{
      msg.slot,
      recv_pool_->sge(msg.slot, static_cast<std::uint32_t>(cfg_.buffer_size)),
      /*capture_payload=*/true});
}

sim::Task<std::size_t> RdmaChannel::read(MutByteView out) {
  co_await ack_events();
  pump();
  if (filled_.empty()) {
    // Checking the CQs costs a little CPU even when nothing arrived;
    // this also keeps poll-style read loops livelock-free.
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return 0;
  }
  const FilledRecv msg = filled_.front();
  if (out.size() < msg.len) {
    throw std::invalid_argument("RdmaChannel::read: output buffer too small");
  }
  (void)filled_.pop();

  RUBIN_AUDIT_COUNT("datapath.recv_copy_bytes", msg.len);
  const std::uint8_t* src = msg.payload.empty()
                                ? recv_pool_->view(msg.slot).data()
                                : msg.payload.data();
  std::memcpy(out.data(), src, msg.len);
  co_await finish_read(msg);
  co_return msg.len;
}

sim::Task<SharedBytes> RdmaChannel::read_shared() {
  co_await ack_events();
  pump();
  if (filled_.empty()) {
    co_await ctx_->simulator().sleep(ctx_->cost().post_call_cpu);
    co_return SharedBytes{};
  }
  FilledRecv msg = filled_.front();
  (void)filled_.pop();

  // Hand the captured payload straight out; fall back to a physical copy
  // for receives that predate capture (cannot happen on this channel, but
  // keeps the method total).
  SharedBytes payload = std::move(msg.payload);
  if (payload.empty() && msg.len > 0) {
    payload = SharedBytes::copy_of(recv_pool_->view(msg.slot).first(msg.len));
  }
  co_await finish_read(msg);
  co_return payload;
}

std::size_t RdmaChannel::readable_messages() noexcept {
  pump();
  return filled_.size();
}

bool RdmaChannel::writable() noexcept {
  if (state_ != State::kEstablished) return false;
  pump();
  if (qp_->send_slots_free() == 0) return false;
  // Pool-copy mode also needs a pool slot; inline/zero-copy do not, but
  // report conservatively so callers can rely on writable() => write > 0.
  if (!cfg_.zero_copy_send && cfg_.inline_threshold == 0) {
    return send_pool_->free_count() > 0;
  }
  return true;
}

std::uint32_t RdmaChannel::send_slots_free() noexcept {
  if (state_ != State::kEstablished) return 0;
  pump();
  return qp_->send_slots_free();
}

std::uint32_t RdmaChannel::send_slots_hint() const noexcept {
  if (state_ != State::kEstablished) return 0;
  return qp_->send_slots_free();
}

sim::Task<std::size_t> RdmaChannel::read_await(MutByteView out) {
  for (;;) {
    const std::size_t n = co_await read(out);
    if (n > 0 || state_ == State::kClosed) co_return n;
    co_await activity_.wait();
  }
}

void RdmaChannel::close() {
  if (state_ == State::kClosed) return;
  state_ = State::kClosed;
  if (conn_id_ != 0) {
    ctx_->cm().disconnect(conn_id_);
  } else if (qp_) {
    qp_->set_error();
  }
  notify();
}

// --------------------------------------------------- RdmaServerChannel ---

RdmaServerChannel::RdmaServerChannel(RubinContext& ctx, std::uint64_t id,
                                     std::uint16_t port, ChannelConfig cfg)
    : ctx_(&ctx), id_(id), port_(port), cfg_(cfg) {}

void RdmaServerChannel::on_cm_event(const verbs::CmEvent& e) {
  if (closed_) return;
  switch (e.type) {
    case verbs::CmEventType::kConnectRequest:
      pending_.push(e);
      break;
    case verbs::CmEventType::kEstablished:
      if (auto it = accepting_.find(e.conn_id); it != accepting_.end()) {
        it->second->state_ = RdmaChannel::State::kEstablished;
        it->second->notify();
        established_.push(std::move(it->second));
        accepting_.erase(it);
      }
      break;
    case verbs::CmEventType::kDisconnected:
      if (auto it = accepting_.find(e.conn_id); it != accepting_.end()) {
        it->second->state_ = RdmaChannel::State::kClosed;
        it->second->notify();
        accepting_.erase(it);
      }
      break;
    case verbs::CmEventType::kRejected:
      break;
  }
  notify();
}

std::shared_ptr<RdmaChannel> RdmaServerChannel::accept() {
  if (pending_.empty()) return nullptr;
  const verbs::CmEvent req = pending_.pop();

  auto channel = std::shared_ptr<RdmaChannel>(
      new RdmaChannel(*ctx_, ctx_->next_id(), cfg_));
  channel->init_qp();
  channel->conn_id_ = req.conn_id;
  accepting_[req.conn_id] = channel;
  listener_->accept(req.conn_id, channel->qp_);
  return channel;
}

std::shared_ptr<RdmaChannel> RdmaServerChannel::next_established() {
  if (established_.empty()) return nullptr;
  auto ch = established_.pop();
  return ch;
}

void RdmaServerChannel::notify() {
  if (selector_notify_) selector_notify_();
}

void RdmaServerChannel::close() {
  closed_ = true;
  pending_.clear();
}

// --------------------------------------------------------- RubinContext --

std::shared_ptr<RdmaServerChannel> RubinContext::listen(std::uint16_t port,
                                                        ChannelConfig cfg) {
  auto server = std::shared_ptr<RdmaServerChannel>(
      new RdmaServerChannel(*this, next_id(), port, cfg));
  std::weak_ptr<RdmaServerChannel> weak = server;
  server->listener_ = cm_->listen(dev_->host(), port,
                                  [weak](const verbs::CmEvent& e) {
                                    if (auto s = weak.lock()) s->on_cm_event(e);
                                  });
  return server;
}

std::shared_ptr<RdmaChannel> RubinContext::connect(net::HostId remote,
                                                   std::uint16_t port,
                                                   ChannelConfig cfg) {
  auto channel =
      std::shared_ptr<RdmaChannel>(new RdmaChannel(*this, next_id(), cfg));
  channel->init_qp();
  std::weak_ptr<RdmaChannel> weak = channel;
  channel->conn_id_ =
      cm_->connect(channel->qp_, remote, port, [weak](const verbs::CmEvent& e) {
        if (auto ch = weak.lock()) ch->on_cm_event(e);
      });
  return channel;
}

}  // namespace rubin::nio
