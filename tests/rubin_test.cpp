// Tests for the RUBIN core library: channel lifecycle, message-oriented
// read/write, the §IV optimizations (selective signaling, inlining,
// zero-copy send cache, batching), and the RdmaSelector with its hybrid
// event queue.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/audit.hpp"
#include "net/fabric.hpp"
#include "rubin/context.hpp"
#include "rubin/selector.hpp"
#include "sim/simulator.hpp"

namespace rubin::nio {
namespace {

using sim::Task;
using sim::Time;

class RubinTest : public ::testing::Test {
 public:
  // Abandoned coroutines hold references into the members below;
  // kill them while those members are still alive.
  ~RubinTest() override { sim.terminate_processes(); }

  /// Runs the CM handshake for one client->server connection and returns
  /// both ends established.
  struct Pair {
    std::shared_ptr<RdmaChannel> client;
    std::shared_ptr<RdmaChannel> server;
  };
  Pair make_pair(ChannelConfig cfg = {}) {
    auto listener = ctx_b.listen(4711, cfg);
    auto client = ctx_a.connect(1, 4711, cfg);
    sim.run_until(sim.now() + sim::microseconds(50));
    // Server accepts the pending request; handshake completes.
    EXPECT_EQ(listener->pending_requests(), 1u);
    auto server = listener->accept();
    EXPECT_NE(server, nullptr);
    sim.run_until(sim.now() + sim::microseconds(50));
    EXPECT_EQ(client->state(), RdmaChannel::State::kEstablished);
    auto established = listener->next_established();
    EXPECT_EQ(established, server);
    listeners_.push_back(std::move(listener));  // keep rendezvous alive
    return Pair{std::move(client), std::move(server)};
  }

  /// Spawns a one-shot server loop: select for a connect request, accept.
  void selector_accept_loop(RdmaSelector& sel,
                            std::shared_ptr<RdmaServerChannel> listener) {
    sel.register_server(listener, kOpConnect);
    sim.spawn([](RdmaSelector& sel,
                 std::shared_ptr<RdmaServerChannel> l) -> Task<> {
      const std::size_t n = co_await sel.select(sim::milliseconds(1));
      if (n > 0) (void)l->accept();
    }(sel, std::move(listener)));
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 4};
  verbs::Device dev_a{fabric, 0};
  verbs::Device dev_b{fabric, 1};
  verbs::ConnectionManager cm{fabric};
  RubinContext ctx_a{dev_a, cm};
  RubinContext ctx_b{dev_b, cm};
  std::vector<std::shared_ptr<RdmaServerChannel>> listeners_;
};

// ------------------------------------------------------------ lifecycle --

TEST_F(RubinTest, ConnectEstablishesBothEnds) {
  auto [client, server] = make_pair();
  EXPECT_EQ(server->state(), RdmaChannel::State::kEstablished);
  EXPECT_EQ(client->remote_host(), 1u);
  EXPECT_EQ(server->remote_host(), 0u);
  EXPECT_NE(client->id(), server->id());
}

TEST_F(RubinTest, ConnectToUnboundPortCloses) {
  auto client = ctx_a.connect(1, 9999);
  sim.run();
  EXPECT_EQ(client->state(), RdmaChannel::State::kClosed);
}

TEST_F(RubinTest, WriteBeforeEstablishedReturnsZero) {
  auto listener = ctx_b.listen(4711);
  auto client = ctx_a.connect(1, 4711);
  std::size_t n = 99;
  const Bytes msg = patterned_bytes(128, 1);
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m,
               std::size_t& n) -> Task<> {
    n = co_await c->write(m);
  }(client, msg, n));
  sim.run_until(sim::microseconds(1));
  EXPECT_EQ(n, 0u);
}

TEST_F(RubinTest, CloseNotifiesPeer) {
  auto [client, server] = make_pair();
  client->close();
  sim.run();
  EXPECT_EQ(server->state(), RdmaChannel::State::kClosed);
  EXPECT_EQ(client->state(), RdmaChannel::State::kClosed);
}

// ------------------------------------------------------------- transfer --

TEST_F(RubinTest, MessageRoundTripIntact) {
  auto [client, server] = make_pair();
  const Bytes msg = patterned_bytes(4096, 42);
  Bytes rx(64 * 1024);
  std::size_t got = 0;
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m) -> Task<> {
    (void)co_await c->write(m);
  }(client, msg));
  sim.spawn([](std::shared_ptr<RdmaChannel> s, Bytes& rx,
               std::size_t& got) -> Task<> {
    got = co_await s->read_await(rx);
  }(server, rx, got));
  sim.run();
  ASSERT_EQ(got, 4096u);
  EXPECT_TRUE(check_pattern(ByteView(rx).first(4096), 42));
}

TEST_F(RubinTest, MessagesKeepBoundariesAndOrder) {
  auto [client, server] = make_pair();
  std::vector<std::size_t> sizes{100, 5000, 1, 70000, 256};
  // Zero-copy contract: sent buffers must outlive the WRs, so build them
  // all up front and keep them alive for the whole run.
  std::vector<Bytes> messages;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    messages.push_back(patterned_bytes(sizes[i], i));
  }
  sim.spawn([](std::shared_ptr<RdmaChannel> c,
               const std::vector<Bytes>& messages) -> Task<> {
    for (const Bytes& m : messages) {
      std::size_t n = 0;
      while (n == 0) n = co_await c->write(m);
    }
  }(client, messages));
  std::vector<std::size_t> got;
  bool ok = true;
  sim.spawn([](std::shared_ptr<RdmaChannel> s, std::vector<std::size_t>& got,
               bool& ok, std::size_t expect) -> Task<> {
    Bytes rx(128 * 1024);
    while (got.size() < expect) {
      const std::size_t n = co_await s->read_await(rx);
      ok = ok && check_pattern(ByteView(rx).first(n), got.size());
      got.push_back(n);
    }
  }(server, got, ok, sizes.size()));
  sim.run();
  EXPECT_EQ(got, sizes);
  EXPECT_TRUE(ok);
}

TEST_F(RubinTest, OversizedMessageThrows) {
  ChannelConfig cfg;
  cfg.buffer_size = 1024;
  auto [client, server] = make_pair(cfg);
  bool threw = false;
  const Bytes m = patterned_bytes(2048, 0);
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m,
               bool& threw) -> Task<> {
    try {
      (void)co_await c->write(m);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  }(client, m, threw));
  sim.run();
  EXPECT_TRUE(threw);
}

TEST_F(RubinTest, ReadEmptyReturnsZero) {
  auto [client, server] = make_pair();
  std::size_t n = 99;
  Bytes rx(1024);
  sim.spawn([](std::shared_ptr<RdmaChannel> s, Bytes& rx, std::size_t& n) -> Task<> {
    n = co_await s->read(rx);
  }(server, rx, n));
  sim.run();
  EXPECT_EQ(n, 0u);
}

TEST_F(RubinTest, ReadIntoTooSmallBufferThrows) {
  auto [client, server] = make_pair();
  // Zero-copy send contract: the buffer must outlive the WR, so it lives
  // in the test body, not the coroutine frame (see RdmaChannel::write).
  const Bytes m = patterned_bytes(4096, 0);
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m) -> Task<> {
    (void)co_await c->write(m);
  }(client, m));
  bool threw = false;
  sim.spawn([](std::shared_ptr<RdmaChannel> s, bool& threw) -> Task<> {
    Bytes rx(16);
    try {
      (void)co_await s->read_await(rx);
    } catch (const std::invalid_argument&) {
      threw = true;
    }
  }(server, threw));
  sim.run();
  EXPECT_TRUE(threw);
}

TEST_F(RubinTest, BackpressureThenRecovery) {
  ChannelConfig cfg;
  cfg.buffer_count = 4;
  cfg.signal_interval = 16;  // rely on the low-slot safeguard
  auto [client, server] = make_pair(cfg);
  int rejected = 0;
  int accepted = 0;
  const Bytes m = patterned_bytes(8192, 7);  // outlives the zero-copy WRs
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m, int& accepted,
               int& rejected) -> Task<> {
    // Burst faster than completions can reclaim slots.
    for (int i = 0; i < 8; ++i) {
      const std::size_t n = co_await c->write(m);
      (n > 0 ? accepted : rejected) += 1;
    }
  }(client, m, accepted, rejected));
  sim.run();
  EXPECT_GT(rejected, 0);
  EXPECT_GE(accepted, 3);
  // After the dust settles the channel is writable again.
  EXPECT_TRUE(client->writable());
}

// ---------------------------------------------------------- §IV knobs ----

TEST_F(RubinTest, SelectiveSignalingReducesCompletions) {
  ChannelConfig sparse;
  sparse.signal_interval = 16;
  auto p1 = make_pair(sparse);
  listeners_.clear();
  const Bytes payload = patterned_bytes(1024, 0);  // outlives the zero-copy WRs

  auto send_64 = [&](std::shared_ptr<RdmaChannel> c,
                     std::shared_ptr<RdmaChannel> s) {
    sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m) -> Task<> {
      for (int i = 0; i < 64; ++i) {
        std::size_t n = 0;
        while (n == 0) n = co_await c->write(m);
      }
    }(c, payload));
    sim.spawn([](std::shared_ptr<RdmaChannel> s) -> Task<> {
      Bytes rx(64 * 1024);
      for (int i = 0; i < 64; ++i) (void)co_await s->read_await(rx);
    }(s));
    sim.run();
  };
  send_64(p1.client, p1.server);
  const std::uint64_t sparse_cqes = p1.client->stats().signaled_completions;

  // Same workload with signaling on every WR.
  sim::Simulator sim2;
  net::Fabric fabric2{sim2, net::CostModel::roce_10g(), 2};
  verbs::Device d0{fabric2, 0};
  verbs::Device d1{fabric2, 1};
  verbs::ConnectionManager cm2{fabric2};
  RubinContext c0{d0, cm2};
  RubinContext c1{d1, cm2};
  ChannelConfig dense;
  dense.signal_interval = 1;
  auto listener = c1.listen(4711, dense);
  auto client = c0.connect(1, 4711, dense);
  sim2.run_until(sim2.now() + sim::microseconds(50));
  auto server = listener->accept();
  sim2.run_until(sim2.now() + sim::microseconds(50));
  sim2.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m) -> Task<> {
    for (int i = 0; i < 64; ++i) {
      std::size_t n = 0;
      while (n == 0) n = co_await c->write(m);
    }
  }(client, payload));
  sim2.spawn([](std::shared_ptr<RdmaChannel> s) -> Task<> {
    Bytes rx(64 * 1024);
    for (int i = 0; i < 64; ++i) (void)co_await s->read_await(rx);
  }(server));
  sim2.run();

  EXPECT_EQ(client->stats().signaled_completions, 64u);
  EXPECT_LT(sparse_cqes, 12u);  // ~64/16 plus low-slot safety signals
  EXPECT_GT(sparse_cqes, 2u);
}

TEST_F(RubinTest, SmallMessagesGoInline) {
  auto [client, server] = make_pair();
  // The inline payload is copied into the WQE at post time and may live in
  // the frame; the zero-copy one must outlive the WR.
  const Bytes large = patterned_bytes(8192, 0);
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& large) -> Task<> {
    const Bytes small = patterned_bytes(64, 0);
    // 64 B < inline_threshold: copied into the WQE at post time, so the
    // rubinlint:allow(coro-stack-wr) frame-local payload is safe.
    (void)co_await c->write(small);
    (void)co_await c->write(large);
  }(client, large));
  sim.run();
  EXPECT_EQ(client->stats().inline_sends, 1u);
  EXPECT_EQ(client->stats().zero_copy_sends, 1u);  // default config
}

TEST_F(RubinTest, ZeroCopySendRegistersBufferOnce) {
  auto [client, server] = make_pair();
  Bytes app_buffer = patterned_bytes(16 * 1024, 3);
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& buf,
               std::shared_ptr<RdmaChannel> s) -> Task<> {
    Bytes rx(64 * 1024);
    for (int i = 0; i < 10; ++i) {
      std::size_t n = 0;
      while (n == 0) n = co_await c->write(buf);
      (void)co_await s->read_await(rx);
    }
  }(client, app_buffer, server));
  sim.run();
  EXPECT_EQ(client->stats().zero_copy_sends, 10u);
  EXPECT_EQ(client->stats().send_registrations, 1u);  // cache hit after 1st
}

TEST_F(RubinTest, PoolCopyModeCopiesEveryMessage) {
  ChannelConfig cfg;
  cfg.zero_copy_send = false;
  cfg.inline_threshold = 0;
  auto [client, server] = make_pair(cfg);
  const Bytes m = patterned_bytes(4096, 1);
  sim.spawn([](std::shared_ptr<RdmaChannel> c, std::shared_ptr<RdmaChannel> s,
               const Bytes& m) -> Task<> {
    Bytes rx(64 * 1024);
    for (int i = 0; i < 5; ++i) {
      std::size_t n = 0;
      while (n == 0) n = co_await c->write(m);
      (void)co_await s->read_await(rx);
    }
  }(client, server, m));
  sim.run();
  EXPECT_EQ(client->stats().pool_copy_sends, 5u);
  EXPECT_EQ(client->stats().inline_sends, 0u);
  EXPECT_EQ(client->stats().zero_copy_sends, 0u);
  EXPECT_EQ(server->stats().receive_copies, 5u);
}

TEST_F(RubinTest, MultiSliceFrameSkipsTheGatherCopy) {
  // The scatter/gather accounting contract: a multi-slice frame posts as
  // one SGE list at pool addresses, so the old staging gather — charge
  // *and* physical memcpy — never happens. The send side must add zero
  // bytes to datapath.copy_bytes; the receiver's copy is separate and
  // deliberately stays (the paper's measured receive-side effect, §IV).
  ChannelConfig cfg;
  cfg.zero_copy_send = false;
  cfg.inline_threshold = 0;
  auto [client, server] = make_pair(cfg);
  FrameVec fv;
  fv.append(SharedBytes::copy_of(patterned_bytes(8, 7)));
  fv.append(SharedBytes::copy_of(patterned_bytes(2040, 8)));
  fv.append(SharedBytes::copy_of(patterned_bytes(2048, 9)));
  audit::reset_counters();
  sim.spawn([](std::shared_ptr<RdmaChannel> c, std::shared_ptr<RdmaChannel> s,
               FrameVec fv) -> Task<> {
    std::size_t n = 0;
    while (n == 0) n = co_await c->write(fv);
    Bytes rx(64 * 1024);
    const std::size_t got = co_await s->read_await(rx);
    EXPECT_EQ(got, 4096u);
    // The peer sees one contiguous message: slices concatenated in order.
    EXPECT_TRUE(check_pattern(ByteView(rx).subspan(8, 2040), 8));
    EXPECT_TRUE(check_pattern(ByteView(rx).subspan(2048, 2048), 9));
  }(client, server, fv));
  sim.run();
  EXPECT_EQ(client->stats().gather_sends, 1u);
  EXPECT_EQ(client->stats().pool_copy_sends, 0u);
  EXPECT_EQ(audit::counter_value("datapath.copy_bytes"), 0u);
  EXPECT_EQ(server->stats().receive_copies, 1u);
}

TEST_F(RubinTest, ZeroCopyReceiveSkipsTheCopy) {
  ChannelConfig cfg;
  cfg.zero_copy_receive = true;
  auto [client, server] = make_pair(cfg);
  const Bytes m = patterned_bytes(32 * 1024, 6);
  sim.spawn([](std::shared_ptr<RdmaChannel> c, std::shared_ptr<RdmaChannel> s,
               const Bytes& m) -> Task<> {
    (void)co_await c->write(m);
    Bytes rx(64 * 1024);
    const std::size_t n = co_await s->read_await(rx);
    EXPECT_EQ(n, 32u * 1024u);
    EXPECT_TRUE(check_pattern(ByteView(rx).first(n), 6));
  }(client, server, m));
  sim.run();
  EXPECT_EQ(server->stats().receive_copies, 0u);
}

TEST_F(RubinTest, BatchedWritesShareOneDoorbell) {
  auto [client, server] = make_pair();
  const Bytes m1 = patterned_bytes(1000, 1);  // outlive the zero-copy WRs
  const Bytes m2 = patterned_bytes(2000, 2);
  const Bytes m3 = patterned_bytes(3000, 3);
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m1,
               const Bytes& m2, const Bytes& m3) -> Task<> {
    std::vector<ByteView> batch;
    batch.push_back(m1);
    batch.push_back(m2);
    batch.push_back(m3);
    const std::size_t n = co_await c->write_batch(std::move(batch));
    EXPECT_EQ(n, 3u);
  }(client, m1, m2, m3));
  sim.run();
  EXPECT_EQ(client->stats().messages_sent, 3u);
  EXPECT_EQ(client->stats().doorbells, 1u);
}

// --------------------------------------------------------------- selector -

TEST_F(RubinTest, SelectorReportsConnectRequest) {
  auto listener = ctx_b.listen(4711);
  RdmaSelector selector(ctx_b);
  selector.register_server(listener, kOpConnect, 77);
  auto client = ctx_a.connect(1, 4711);

  std::size_t nready = 0;
  std::uint64_t att = 0;
  sim.spawn([](RdmaSelector& sel, std::size_t& nready, std::uint64_t& att) -> Task<> {
    nready = co_await sel.select();
    att = sel.selected().front()->attachment();
  }(selector, nready, att));
  sim.run();
  EXPECT_EQ(nready, 1u);
  EXPECT_EQ(att, 77u);
  EXPECT_TRUE(selector.selected().front()->is_connectable());
}

TEST_F(RubinTest, SelectorReportsAcceptOnEstablishment) {
  auto listener = ctx_b.listen(4711);
  RdmaSelector sel_b(ctx_b);
  selector_accept_loop(sel_b, listener);
  auto client = ctx_a.connect(1, 4711);

  RdmaSelector sel_a(ctx_a);
  sel_a.register_channel(client, kOpAccept);
  int accepts = 0;
  sim.spawn([](RdmaSelector& sel, int& accepts) -> Task<> {
    for (int i = 0; i < 2; ++i) {
      const std::size_t n = co_await sel.select(sim::microseconds(500));
      for (std::size_t k = 0; k < n; ++k) {
        if (sel.selected()[k]->is_acceptable()) ++accepts;
      }
    }
  }(sel_a, accepts));
  sim.run();
  EXPECT_EQ(accepts, 1);  // one-shot on the client key
  EXPECT_EQ(client->state(), RdmaChannel::State::kEstablished);
}

TEST_F(RubinTest, SelectorTimeoutAndWakeup) {
  auto listener = ctx_b.listen(4711);
  RdmaSelector selector(ctx_b);
  selector.register_server(listener, kOpConnect);
  std::size_t n1 = 99;
  std::size_t n2 = 99;
  Time t1 = -1;
  Time t2 = -1;
  sim.spawn([](sim::Simulator& s, RdmaSelector& sel, std::size_t& n1,
               std::size_t& n2, Time& t1, Time& t2) -> Task<> {
    n1 = co_await sel.select(sim::microseconds(100));
    t1 = s.now();
    n2 = co_await sel.select();  // indefinite; ended by wakeup()
    t2 = s.now();
  }(sim, selector, n1, n2, t1, t2));
  sim.schedule_after(sim::microseconds(400), [&] { selector.wakeup(); });
  sim.run();
  EXPECT_EQ(n1, 0u);
  EXPECT_GE(t1, sim::microseconds(100));
  EXPECT_EQ(n2, 0u);
  EXPECT_GE(t2, sim::microseconds(400));
}

TEST_F(RubinTest, CancelledKeyRemoved) {
  auto listener = ctx_b.listen(4711);
  RdmaSelector selector(ctx_b);
  auto* key = selector.register_server(listener, kOpConnect);
  key->cancel();
  std::size_t n = 99;
  sim.spawn([](RdmaSelector& sel, std::size_t& n) -> Task<> {
    n = co_await sel.select(0);
  }(selector, n));
  sim.run();
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(selector.key_count(), 0u);
}

TEST_F(RubinTest, SingleThreadServesManyChannels) {
  // The paper's headline property: one selector thread multiplexing many
  // RDMA connections. Three clients ping concurrently; one server thread
  // echoes; every client gets its own bytes back.
  auto listener = ctx_b.listen(4711);

  // Server: selector loop handling accepts + echoes, single coroutine.
  sim.spawn([](RubinContext& ctx, std::shared_ptr<RdmaServerChannel> listener)
                -> Task<> {
    RdmaSelector selector(ctx);
    selector.register_server(listener, kOpConnect | kOpAccept);
    // One echo buffer per channel: a zero-copy send DMA-reads the buffer
    // after write() returns, so a buffer may only be reused once its
    // client has consumed the previous echo (guaranteed by ping-pong).
    std::map<std::uint64_t, Bytes> rx_buffers;
    int served = 0;
    while (served < 3 * 5) {
      const std::size_t n = co_await selector.select(sim::milliseconds(5));
      if (n == 0) co_return;  // stall guard; assertions below will fail
      for (RdmaSelectionKey* key : selector.selected()) {
        if (key->is_connectable()) (void)listener->accept();
        if (key->is_acceptable()) {
          while (auto ch = listener->next_established()) {
            rx_buffers[ch->id()].resize(64 * 1024);
            selector.register_channel(std::move(ch), kOpReceive);
          }
        }
        if (key->is_receivable() && key->channel()) {
          Bytes& rx = rx_buffers[key->channel_id()];
          const std::size_t got = co_await key->channel()->read(rx);
          if (got > 0) {
            std::size_t w = 0;
            while (w == 0) {
              w = co_await key->channel()->write(ByteView(rx).first(got));
            }
            ++served;
          }
        }
      }
    }
    // Drain: the last echo was *posted*, not yet transmitted. Destroying
    // the channels (and their QPs) here would drop it on the floor —
    // same rule as real verbs: flush before teardown.
    co_await ctx.simulator().sleep(sim::milliseconds(1));
  }(ctx_b, listener));

  // Clients on hosts 0, 2, 3.
  verbs::Device dev_c{fabric, 2};
  verbs::Device dev_d{fabric, 3};
  RubinContext ctx_c{dev_c, cm};
  RubinContext ctx_d{dev_d, cm};
  int ok = 0;
  auto run_client = [&](RubinContext& ctx, std::uint64_t seed) {
    sim.spawn([](RubinContext& ctx, std::uint64_t seed, int& ok) -> Task<> {
      auto ch = ctx.connect(1, 4711);
      Bytes rx(64 * 1024);
      // Wait for establishment.
      while (ch->state() == RdmaChannel::State::kConnecting) {
        co_await ctx.simulator().sleep(sim::microseconds(10));
      }
      for (int i = 0; i < 5; ++i) {
        const Bytes msg = patterned_bytes(1024 + 512 * i, seed + static_cast<std::uint64_t>(i));
        std::size_t w = 0;
        while (w == 0) w = co_await ch->write(msg);
        const std::size_t n = co_await ch->read_await(rx);
        if (n == msg.size() &&
            check_pattern(ByteView(rx).first(n), seed + static_cast<std::uint64_t>(i))) {
          ++ok;
        }
      }
    }(ctx, seed, ok));
  };
  run_client(ctx_a, 100);
  run_client(ctx_c, 200);
  run_client(ctx_d, 300);
  sim.run();
  EXPECT_EQ(ok, 15);
}

TEST_F(RubinTest, SelectorCountsDispatchedEvents) {
  auto [client, server] = make_pair();
  RdmaSelector selector(ctx_b);
  selector.register_channel(server, kOpReceive);
  const Bytes m = patterned_bytes(256, 0);  // outlives the zero-copy WRs
  sim.spawn([](std::shared_ptr<RdmaChannel> c, const Bytes& m) -> Task<> {
    for (int i = 0; i < 4; ++i) {
      std::size_t n = 0;
      while (n == 0) n = co_await c->write(m);
    }
  }(client, m));
  std::size_t nready = 0;
  sim.spawn([](RdmaSelector& sel, std::size_t& nready) -> Task<> {
    nready = co_await sel.select();
  }(selector, nready));
  sim.run();
  EXPECT_GE(nready, 1u);
  EXPECT_GE(selector.events_dispatched(), 1u);
}

}  // namespace
}  // namespace rubin::nio
