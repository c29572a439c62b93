#include "workloads/echo_kit.hpp"

#include <cstring>
#include <stdexcept>

#include "common/shared_bytes.hpp"
#include "common/stats.hpp"
#include "net/fabric.hpp"
#include "rubin/context.hpp"
#include "rubin/transport_select.hpp"
#include "rubin/write_channel.hpp"
#include "sim/simulator.hpp"
#include "tcpsim/poller.hpp"
#include "tcpsim/tcp.hpp"
#include "verbs/cm.hpp"
#include "verbs/device.hpp"

namespace rubin::workloads {

namespace {

using sim::Task;
using sim::Time;

EchoPoint finish(const LatencyRecorder& lat, Time elapsed, int messages) {
  EchoPoint pt;
  pt.latency_us = lat.mean();
  pt.p99_us = lat.count() ? lat.percentile(0.99) : 0.0;
  const double s = sim::to_s(elapsed);
  pt.krps = s > 0 ? static_cast<double>(messages) / s / 1000.0 : 0.0;
  return pt;
}

}  // namespace

// ------------------------------------------------------------------ TCP --

EchoPoint run_tcp_echo(const EchoParams& p) {
  sim::Simulator sim;
  net::Fabric fabric(sim, p.cost, 2);
  tcpsim::TcpNetwork net(fabric);

  auto listener = net.listen(1, 7000);
  auto client = net.connect(0, {1, 7000});
  sim.run();
  auto server = listener->accept();

  bool server_up = true;
  // Server: NIO-style selector loop, echo whatever arrives.
  sim.spawn([](tcpsim::TcpNetwork& net, std::shared_ptr<tcpsim::TcpSocket> s,
               std::size_t payload, bool& up) -> Task<> {
    tcpsim::Poller poller(net);
    poller.register_socket(s, tcpsim::kOpRead);
    Bytes buf(payload);
    std::size_t got = 0;  // reassembly progress survives select() rounds
    while (up) {
      if (co_await poller.select(sim::milliseconds(50)) == 0) break;
      for (;;) {
        const std::size_t n =
            co_await s->read(MutByteView(buf).subspan(got, payload - got));
        if (n == 0) {
          if (s->eof()) co_return;
          break;  // drained; wait for more segments
        }
        got += n;
        if (got == payload) {
          got = 0;
          std::size_t off = 0;
          while (off < payload) {
            const std::size_t w = co_await s->write(ByteView(buf).subspan(off));
            if (w == 0) (void)co_await poller.select(sim::microseconds(50));
            off += w;
          }
        }
      }
    }
  }(net, server, p.payload, server_up));

  LatencyRecorder lat;
  Time started = 0;
  Time finished = 0;
  sim.spawn([](sim::Simulator& sim, tcpsim::TcpNetwork& net,
               std::shared_ptr<tcpsim::TcpSocket> c, const EchoParams& p,
               LatencyRecorder& lat, Time& started, Time& finished,
               bool& server_up) -> Task<> {
    tcpsim::Poller poller(net);
    poller.register_socket(c, tcpsim::kOpRead);
    const Bytes msg = patterned_bytes(p.payload, 1);
    Bytes rx(p.payload);
    started = sim.now();
    for (int i = 0; i < p.messages; ++i) {
      const Time t0 = sim.now();
      std::size_t off = 0;
      while (off < msg.size()) {
        const std::size_t n = co_await c->write(ByteView(msg).subspan(off));
        if (n == 0) co_await poller.select(sim::microseconds(50));
        off += n;
      }
      std::size_t got = 0;
      while (got < p.payload) {
        const std::size_t n =
            co_await c->read(MutByteView(rx).subspan(got, p.payload - got));
        if (n == 0) (void)co_await poller.select(sim::milliseconds(50));
        got += n;
      }
      lat.add(sim::to_us(sim.now() - t0));
    }
    finished = sim.now();
    server_up = false;
    c->close();
  }(sim, net, client, p, lat, started, finished, server_up));

  sim.run();
  return finish(lat, finished - started, p.messages);
}

// ------------------------------------------------------------ Send/Recv --

EchoPoint run_sendrecv_echo(const EchoParams& p) {
  sim::Simulator sim;
  net::Fabric fabric(sim, p.cost, 2);
  verbs::Device dev_c(fabric, 0);
  verbs::Device dev_s(fabric, 1);
  verbs::ProtectionDomain pd_c;
  verbs::ProtectionDomain pd_s;

  constexpr std::uint32_t kRecvs = 8;
  verbs::QpConfig qc;

  // Client resources. Completion *events* (armed CQs + channel): this is
  // the event-driven two-sided mode RUBIN builds on.
  auto* ch_c = dev_c.create_channel();
  auto* scq_c = dev_c.create_cq(256, ch_c);
  auto* rcq_c = dev_c.create_cq(256, ch_c);
  auto qp_c = dev_c.create_qp(pd_c, *scq_c, *rcq_c, qc);
  auto* ch_s = dev_s.create_channel();
  auto* scq_s = dev_s.create_cq(256, ch_s);
  auto* rcq_s = dev_s.create_cq(256, ch_s);
  auto qp_s = dev_s.create_qp(pd_s, *scq_s, *rcq_s, qc);
  qp_c->connect(dev_s, qp_s->qp_num());
  qp_s->connect(dev_c, qp_c->qp_num());

  Bytes tx_c = patterned_bytes(p.payload, 1);
  Bytes rx_c(static_cast<std::size_t>(kRecvs) * p.payload);
  Bytes rx_s(static_cast<std::size_t>(kRecvs) * p.payload);
  auto* mr_tx_c = pd_c.register_memory(tx_c, 0);
  auto* mr_rx_c = pd_c.register_memory(rx_c, verbs::kAccessLocalWrite);
  auto* mr_rx_s = pd_s.register_memory(rx_s, verbs::kAccessLocalWrite);

  // Pre-post receives on both sides (wr_id = slot).
  auto post_recvs = [&](std::shared_ptr<verbs::QueuePair> qp,
                        verbs::MemoryRegion* mr) {
    std::vector<verbs::RecvWr> recvs;
    for (std::uint32_t i = 0; i < kRecvs; ++i) {
      recvs.push_back(verbs::RecvWr{
          i, verbs::Sge{mr->addr() + i * p.payload,
                        static_cast<std::uint32_t>(p.payload), mr->lkey()}});
    }
    (void)qp->post_recv_now(std::move(recvs));
  };
  post_recvs(qp_c, mr_rx_c);
  post_recvs(qp_s, mr_rx_s);
  rcq_c->req_notify();
  rcq_s->req_notify();
  scq_c->req_notify();
  scq_s->req_notify();

  bool server_up = true;
  // Server: DiSNI-endpoint semantics — every operation *blocks on its
  // completion event* (ibv_get_cq_event: the thread sleeps on the channel
  // fd and cannot observe a CQE before its event is delivered). This is
  // the Send/Receive baseline RUBIN's selective signaling improves on.
  sim.spawn([](sim::Simulator& sim, const net::CostModel& cost,
               verbs::CompletionChannel* ch, verbs::CompletionQueue* scq,
               verbs::CompletionQueue* rcq,
               std::shared_ptr<verbs::QueuePair> qp, verbs::MemoryRegion* mr,
               std::size_t payload, bool& up) -> Task<> {
    int pending_recv_events = 0;
    auto await_cq = [&](verbs::CompletionQueue* want) -> Task<> {
      for (;;) {
        verbs::CompletionQueue* got = co_await ch->events().recv();
        co_await sim.sleep(cost.thread_wakeup);
        if (got == want) co_return;
        ++pending_recv_events;  // the other CQ's event; remember it
      }
    };
    while (up) {
      if (pending_recv_events > 0) {
        --pending_recv_events;
      } else {
        co_await await_cq(rcq);
      }
      const auto completions = rcq->poll(16);
      rcq->req_notify();
      for (const verbs::Completion& c : completions) {
        if (c.status != verbs::WcStatus::kSuccess) co_return;
        verbs::SendWr wr;
        wr.wr_id = c.wr_id;
        wr.sg_list = verbs::Sge{mr->addr() + c.wr_id * payload, c.byte_len,
                            mr->lkey()};
        wr.signaled = true;
        (void)co_await qp->post_send_one(wr);
        // Blocking send: sleep until the send completion event.
        co_await await_cq(scq);
        (void)scq->poll(4);
        scq->req_notify();
        // Recycle the receive.
        (void)co_await qp->post_recv_one(verbs::RecvWr{
            c.wr_id, verbs::Sge{mr->addr() + c.wr_id * payload,
                                static_cast<std::uint32_t>(payload),
                                mr->lkey()}});
      }
    }
  }(sim, p.cost, ch_s, scq_s, rcq_s, qp_s, mr_rx_s, p.payload, server_up));

  LatencyRecorder lat;
  Time started = 0;
  Time finished = 0;
  sim.spawn([](sim::Simulator& sim, verbs::CompletionChannel* ch,
               verbs::CompletionQueue* scq, verbs::CompletionQueue* rcq,
               std::shared_ptr<verbs::QueuePair> qp,
               verbs::MemoryRegion* mr_tx, verbs::MemoryRegion* mr_rx,
               const EchoParams& p, LatencyRecorder& lat, Time& started,
               Time& finished, bool& server_up) -> Task<> {
    started = sim.now();
    for (int i = 0; i < p.messages; ++i) {
      const Time t0 = sim.now();
      verbs::SendWr wr;
      wr.wr_id = static_cast<std::uint64_t>(i);
      wr.sg_list = verbs::Sge{mr_tx->addr(), static_cast<std::uint32_t>(p.payload),
                          mr_tx->lkey()};
      wr.signaled = true;
      (void)co_await qp->post_send_one(wr);
      // Blocking send: sleep until the send completion *event* arrives
      // (the echo's receive event may come first — remember it).
      bool echo_event_seen = false;
      for (bool sent = false; !sent;) {
        verbs::CompletionQueue* got = co_await ch->events().recv();
        co_await sim.sleep(p.cost.thread_wakeup + p.cost.event_ack_cpu);
        if (got == scq) {
          (void)scq->poll(4);
          scq->req_notify();
          sent = true;
        } else {
          echo_event_seen = true;
        }
      }
      // Blocking receive: sleep until the echo's event (unless it beat
      // the send completion).
      while (!echo_event_seen) {
        verbs::CompletionQueue* got = co_await ch->events().recv();
        co_await sim.sleep(p.cost.thread_wakeup + p.cost.event_ack_cpu);
        if (got == rcq) echo_event_seen = true;
      }
      for (const verbs::Completion& c : rcq->poll(16)) {
        if (c.status != verbs::WcStatus::kSuccess) co_return;
        (void)co_await qp->post_recv_one(verbs::RecvWr{
            c.wr_id, verbs::Sge{mr_rx->addr() + c.wr_id * p.payload,
                                static_cast<std::uint32_t>(p.payload),
                                mr_rx->lkey()}});
      }
      rcq->req_notify();
      lat.add(sim::to_us(sim.now() - t0));
    }
    finished = sim.now();
    server_up = false;
  }(sim, ch_c, scq_c, rcq_c, qp_c, mr_tx_c, mr_rx_c, p, lat, started,
    finished, server_up));

  sim.run_until(sim::seconds(60));
  return finish(lat, finished - started, p.messages);
}

// ----------------------------------------------------------- Read/Write --

EchoPoint run_readwrite_echo(const EchoParams& p) {
  sim::Simulator sim;
  net::Fabric fabric(sim, p.cost, 2);
  verbs::Device dev_c(fabric, 0);
  verbs::Device dev_s(fabric, 1);
  verbs::ProtectionDomain pd_c;
  verbs::ProtectionDomain pd_s;

  auto* scq_c = dev_c.create_cq(4096);
  auto* rcq_c = dev_c.create_cq(16);
  auto qp_c = dev_c.create_qp(pd_c, *scq_c, *rcq_c);
  auto* scq_s = dev_s.create_cq(4096);
  auto* rcq_s = dev_s.create_cq(16);
  auto qp_s = dev_s.create_qp(pd_s, *scq_s, *rcq_s);
  qp_c->connect(dev_s, qp_s->qp_num());
  qp_s->connect(dev_c, qp_c->qp_num());

  // Mailboxes: each side exposes a buffer the peer RDMA-writes into. The
  // last 8 bytes carry the message sequence number — the poll flag.
  const std::size_t slot = p.payload + 8;
  Bytes inbox_c(slot);
  Bytes inbox_s(slot);
  Bytes out_c = patterned_bytes(slot, 1);
  Bytes out_s = patterned_bytes(slot, 2);
  auto* mr_inbox_c = pd_c.register_memory(
      inbox_c, verbs::kAccessLocalWrite | verbs::kAccessRemoteWrite);
  auto* mr_inbox_s = pd_s.register_memory(
      inbox_s, verbs::kAccessLocalWrite | verbs::kAccessRemoteWrite);
  auto* mr_out_c = pd_c.register_memory(out_c, 0);
  auto* mr_out_s = pd_s.register_memory(out_s, 0);

  // Shared context passed by reference: coroutine lambdas must not
  // capture (the closure dies at the end of the spawn statement).
  struct RwCtx {
    sim::Simulator& sim;
    const EchoParams& p;
    std::size_t slot;
    Bytes& inbox_c;
    Bytes& inbox_s;
    Bytes& out_c;
    Bytes& out_s;
    verbs::MemoryRegion* mr_inbox_c;
    verbs::MemoryRegion* mr_inbox_s;
    verbs::MemoryRegion* mr_out_c;
    verbs::MemoryRegion* mr_out_s;
    Time poll_interval;
    bool server_up = true;
    LatencyRecorder lat{};
    Time started = 0;
    Time finished = 0;

    static std::uint64_t read_seq(const Bytes& buf) {
      std::uint64_t seq = 0;
      std::memcpy(&seq, buf.data() + buf.size() - 8, 8);
      return seq;
    }
    static void write_seq(Bytes& buf, std::uint64_t seq) {
      std::memcpy(buf.data() + buf.size() - 8, &seq, 8);
    }
  };
  RwCtx ctx{sim, p, slot, inbox_c, inbox_s, out_c, out_s,
            mr_inbox_c, mr_inbox_s, mr_out_c, mr_out_s, p.rw_poll_interval};

  // Server: poll the inbox; on a new sequence number, RDMA-write the echo
  // back. The server CPU never takes an interrupt or event (one-sided).
  sim.spawn([](RwCtx& ctx, std::shared_ptr<verbs::QueuePair> qp) -> Task<> {
    std::uint64_t expect = 1;
    std::uint64_t sends = 0;
    while (ctx.server_up) {
      if (RwCtx::read_seq(ctx.inbox_s) < expect) {
        co_await ctx.sim.sleep(ctx.poll_interval);
        continue;
      }
      RwCtx::write_seq(ctx.out_s, expect);
      verbs::SendWr wr;
      wr.opcode = verbs::Opcode::kRdmaWrite;
      wr.wr_id = expect;
      wr.sg_list = verbs::Sge{ctx.mr_out_s->addr(),
                          static_cast<std::uint32_t>(ctx.slot),
                          ctx.mr_out_s->lkey()};
      wr.remote_addr = ctx.mr_inbox_c->addr();
      wr.rkey = ctx.mr_inbox_c->rkey();
      wr.signaled = (++sends % 64) == 0;
      (void)co_await qp->post_send_one(wr);
      ++expect;
    }
  }(ctx, qp_s));

  sim.spawn([](RwCtx& ctx, std::shared_ptr<verbs::QueuePair> qp) -> Task<> {
    ctx.started = ctx.sim.now();
    std::uint64_t sends = 0;
    for (int i = 1; i <= ctx.p.messages; ++i) {
      const Time t0 = ctx.sim.now();
      RwCtx::write_seq(ctx.out_c, static_cast<std::uint64_t>(i));
      verbs::SendWr wr;
      wr.opcode = verbs::Opcode::kRdmaWrite;
      wr.wr_id = static_cast<std::uint64_t>(i);
      wr.sg_list = verbs::Sge{ctx.mr_out_c->addr(),
                          static_cast<std::uint32_t>(ctx.slot),
                          ctx.mr_out_c->lkey()};
      wr.remote_addr = ctx.mr_inbox_s->addr();
      wr.rkey = ctx.mr_inbox_s->rkey();
      wr.signaled = (++sends % 64) == 0;
      (void)co_await qp->post_send_one(wr);
      while (RwCtx::read_seq(ctx.inbox_c) < static_cast<std::uint64_t>(i)) {
        co_await ctx.sim.sleep(ctx.poll_interval);
      }
      ctx.lat.add(sim::to_us(ctx.sim.now() - t0));
    }
    ctx.finished = ctx.sim.now();
    ctx.server_up = false;
  }(ctx, qp_c));

  sim.run_until(sim::seconds(60));
  return finish(ctx.lat, ctx.finished - ctx.started, p.messages);
}

// --------------------------------------------------------- RDMA Channel --

EchoPoint run_channel_echo_windowed(const EchoParams& p,
                                    nio::ChannelConfig cfg,
                                    std::uint32_t window) {
  sim::Simulator sim;
  net::Fabric fabric(sim, p.cost, 2);
  verbs::Device dev_c(fabric, 0);
  verbs::Device dev_s(fabric, 1);
  verbs::ConnectionManager cm(fabric);
  nio::RubinContext ctx_c(dev_c, cm);
  nio::RubinContext ctx_s(dev_s, cm);

  auto listener = ctx_s.listen(4711, cfg);
  auto client = ctx_c.connect(1, 4711, cfg);
  sim.run_until(sim::microseconds(100));
  auto server = listener->accept();
  sim.run_until(sim.now() + sim::microseconds(100));

  bool server_up = true;
  sim.spawn([](std::shared_ptr<nio::RdmaChannel> ch, std::size_t payload,
               bool& up) -> Task<> {
    Bytes rx(std::max<std::size_t>(payload, 4096));
    while (up && ch->is_open()) {
      const std::size_t n = co_await ch->read_await(rx);
      if (n == 0) co_return;
      std::size_t w = 0;
      // Closed-loop echo: the client sends its next request only after
      // consuming this echo, so the WR always completes before rx is
      // overwritten or the frame exits; hoisting would add a copy the
      // Fig. 3/4 latency benches must not pay.
      // rubinlint:allow(coro-stack-wr) closed-loop: WR done before rx reuse
      while (w == 0) w = co_await ch->write(ByteView(rx).first(n));
    }
  }(server, p.payload, server_up));

  LatencyRecorder lat;
  Time started = 0;
  Time finished = 0;
  sim.spawn([](sim::Simulator& sim, std::shared_ptr<nio::RdmaChannel> ch,
               const EchoParams& p, std::uint32_t window, LatencyRecorder& lat,
               Time& started, Time& finished, bool& up) -> Task<> {
    const SharedBytes msg = SharedBytes::copy_of(patterned_bytes(p.payload, 1));
    Bytes rx(std::max<std::size_t>(p.payload, 4096));
    started = sim.now();
    int sent = 0;
    int done = 0;
    std::deque<Time> sent_at;
    while (done < p.messages) {
      while (sent < p.messages && sent_at.size() < window) {
        const std::size_t w = co_await ch->write(msg);
        if (w == 0) break;  // out of capacity; drain first
        sent_at.push_back(sim.now());
        ++sent;
      }
      const std::size_t n = co_await ch->read(rx);
      if (n == 0) {
        if (sent_at.empty()) {
          // Nothing in flight (send capacity exhausted): wait for slots
          // to be reclaimed rather than for an echo that cannot come.
          co_await sim.sleep(sim::microseconds(2));
          continue;
        }
        (void)co_await ch->read_await(rx);  // park until the echo arrives
        lat.add(sim::to_us(sim.now() - sent_at.front()));
        sent_at.pop_front();
        ++done;
        continue;
      }
      lat.add(sim::to_us(sim.now() - sent_at.front()));
      sent_at.pop_front();
      ++done;
    }
    finished = sim.now();
    up = false;
    ch->close();
  }(sim, client, p, window, lat, started, finished, server_up));

  sim.run_until(sim::seconds(60));
  return finish(lat, finished - started, p.messages);
}

nio::ChannelConfig default_channel_config(std::size_t payload) {
  nio::ChannelConfig cfg;
  cfg.buffer_count = 64;
  cfg.buffer_size = std::max<std::size_t>(payload, 4096);
  cfg.signal_interval = 16;
  cfg.inline_threshold = 256;
  cfg.zero_copy_send = true;    // §IV: app send buffer registered directly
  cfg.zero_copy_receive = false;  // §IV: receiver still copies (measured)
  return cfg;
}

EchoPoint run_channel_echo(const EchoParams& p, nio::ChannelConfig cfg) {
  sim::Simulator sim;
  net::Fabric fabric(sim, p.cost, 2);
  verbs::Device dev_c(fabric, 0);
  verbs::Device dev_s(fabric, 1);
  verbs::ConnectionManager cm(fabric);
  nio::RubinContext ctx_c(dev_c, cm);
  nio::RubinContext ctx_s(dev_s, cm);

  auto listener = ctx_s.listen(4711, cfg);
  auto client = ctx_c.connect(1, 4711, cfg);
  sim.run_until(sim::microseconds(100));
  auto server = listener->accept();
  sim.run_until(sim.now() + sim::microseconds(100));

  bool server_up = true;
  sim.spawn([](std::shared_ptr<nio::RdmaChannel> ch, std::size_t payload,
               bool& up) -> Task<> {
    Bytes rx(std::max<std::size_t>(payload, 4096));
    while (up && ch->is_open()) {
      const std::size_t n = co_await ch->read_await(rx);
      if (n == 0) co_return;
      std::size_t w = 0;
      // Closed-loop echo: the client sends its next request only after
      // consuming this echo, so the WR always completes before rx is
      // overwritten or the frame exits; hoisting would add a copy the
      // Fig. 3/4 latency benches must not pay.
      // rubinlint:allow(coro-stack-wr) closed-loop: WR done before rx reuse
      while (w == 0) w = co_await ch->write(ByteView(rx).first(n));
    }
  }(server, p.payload, server_up));

  LatencyRecorder lat;
  Time started = 0;
  Time finished = 0;
  sim.spawn([](sim::Simulator& sim, std::shared_ptr<nio::RdmaChannel> ch,
               const EchoParams& p, LatencyRecorder& lat, Time& started,
               Time& finished, bool& up) -> Task<> {
    // One stable refcounted buffer for every send: the zero-copy MR cache
    // stays warm (single registration) and the handle rides each WR with
    // no physical staging or NIC-snapshot copies.
    const SharedBytes msg = SharedBytes::copy_of(patterned_bytes(p.payload, 1));
    Bytes rx(std::max<std::size_t>(p.payload, 4096));
    started = sim.now();
    for (int i = 0; i < p.messages; ++i) {
      const Time t0 = sim.now();
      std::size_t w = 0;
      while (w == 0) w = co_await ch->write(msg);
      (void)co_await ch->read_await(rx);
      lat.add(sim::to_us(sim.now() - t0));
    }
    finished = sim.now();
    up = false;
    ch->close();
  }(sim, client, p, lat, started, finished, server_up));

  sim.run_until(sim::seconds(60));
  return finish(lat, finished - started, p.messages);
}

// ---------------------------------------------------- Adaptive selector --

EchoPoint run_adaptive_echo(const EchoParams& p, nio::TransportPolicy policy) {
  if (policy.mode == nio::TransportPolicy::Mode::kFixed &&
      policy.fixed == nio::TransportKind::kReadDrain) {
    throw std::invalid_argument(
        "run_adaptive_echo: the echo harness has no receiver-driven pull "
        "lane; a fixed kReadDrain policy cannot carry messages");
  }
  sim::Simulator sim;
  net::Fabric fabric(sim, p.cost, 2);
  verbs::Device dev_c(fabric, 0);
  verbs::Device dev_s(fabric, 1);
  verbs::ConnectionManager cm(fabric);
  nio::RubinContext ctx_c(dev_c, cm);
  nio::RubinContext ctx_s(dev_s, cm);

  // Two-sided lane: the RUBIN channel with the §IV defaults. The policy
  // rides the config so the channel's owner can introspect it.
  nio::ChannelConfig cfg = default_channel_config(p.payload);
  cfg.policy = policy;
  auto listener = ctx_s.listen(4711, cfg);
  auto client = ctx_c.connect(1, 4711, cfg);
  sim.run_until(sim::microseconds(100));
  auto server = listener->accept();
  sim.run_until(sim.now() + sim::microseconds(100));

  // One-sided lane: a mailbox pair sized for the payload.
  nio::OneSidedConfig oc;
  oc.slot_payload = std::max<std::size_t>(p.payload, 4096);
  auto pair = nio::OneSidedChannel::create_pair(ctx_c, ctx_s, oc);

  struct AdCtx {
    sim::Simulator& sim;
    const EchoParams& p;
    std::shared_ptr<nio::RdmaChannel> ch_c;
    std::shared_ptr<nio::RdmaChannel> ch_s;
    nio::OneSidedChannel* os_c;
    nio::OneSidedChannel* os_s;
    nio::TransportSelector sel;
    bool server_up = true;
    LatencyRecorder lat{};
    Time started = 0;
    Time finished = 0;
  };
  AdCtx ctx{sim,          p,
            client,       server,
            pair.first.get(), pair.second.get(),
            nio::TransportSelector(p.cost, policy)};

  // Server: service both lanes; echo on the lane the request arrived on.
  sim.spawn([](AdCtx& c) -> Task<> {
    Bytes rx(std::max<std::size_t>(c.p.payload, 4096));
    while (c.server_up) {
      std::size_t n = co_await c.os_s->read(rx);
      if (n > 0) {
        // One-sided echo: wrap the consumed bytes in a refcounted frame
        // and gather-write it back — no staging copy (DESIGN.md §11).
        const SharedBytes echo = SharedBytes::copy_of(ByteView(rx).first(n));
        std::size_t w = 0;
        while (w == 0) {
          w = co_await c.os_s->write(FrameVec(echo));
          if (w == 0) co_await c.sim.sleep(c.os_s->config().poll_interval);
        }
        continue;
      }
      n = co_await c.ch_s->read(rx);
      if (n > 0) {
        std::size_t w = 0;
        // Closed-loop echo (see run_channel_echo for why this is safe).
        // rubinlint:allow(coro-stack-wr) closed-loop: WR done before rx reuse
        while (w == 0) w = co_await c.ch_s->write(ByteView(rx).first(n));
        continue;
      }
      if (!c.ch_s->is_open()) co_return;
      co_await c.sim.sleep(c.os_s->config().poll_interval);
    }
  }(ctx));

  sim.spawn([](AdCtx& c) -> Task<> {
    const SharedBytes msg = SharedBytes::copy_of(patterned_bytes(c.p.payload, 1));
    Bytes rx(std::max<std::size_t>(c.p.payload, 4096));
    c.started = c.sim.now();
    for (int i = 0; i < c.p.messages; ++i) {
      const Time t0 = c.sim.now();
      for (;;) {
        nio::SelectorInputs in;
        in.payload = c.p.payload;
        in.send_slots_free = c.ch_c->send_slots_free();
        in.ring_credits = c.os_c->credits_available();
        in.recv_poll_interval = c.os_c->config().poll_interval;
        const nio::TransportKind k = c.sel.pick(in);
        if (k == nio::TransportKind::kWrite) {
          // Gather write: the refcounted frame rides the SGE list.
          if (co_await c.os_c->write(FrameVec(msg)) == 0) continue;
          (void)co_await c.os_c->read_await(rx);
          break;
        }
        if (k == nio::TransportKind::kReadDrain) {
          // Both lanes starved: the drain is the *receiver's* work — the
          // sender only waits for resources to come back, then re-picks.
          co_await c.sim.sleep(c.os_c->config().poll_interval);
          continue;
        }
        // kInline / kSendRecv both travel the RUBIN channel; its
        // inline_threshold applies the inline WQE path automatically.
        if (co_await c.ch_c->write(msg) == 0) continue;
        (void)co_await c.ch_c->read_await(rx);
        break;
      }
      c.lat.add(sim::to_us(c.sim.now() - t0));
    }
    c.finished = c.sim.now();
    c.server_up = false;
    c.ch_c->close();
  }(ctx));

  sim.run_until(sim::seconds(60));
  return finish(ctx.lat, ctx.finished - ctx.started, p.messages);
}

}  // namespace rubin::workloads
