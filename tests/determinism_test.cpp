// Pins the virtual-time determinism contract of the zero-copy data plane:
// eliding physical copies must not move a single modeled charge. Every
// workload here is run twice in fresh worlds and the observable results —
// which are pure functions of the virtual-time trace — must match to the
// last bit. A divergence means a physical-host artifact (pointer value,
// allocation order, wall clock) leaked into simulation behaviour.
#include <gtest/gtest.h>

#include <string>

#include "common/audit.hpp"
#include "poplab/population.hpp"
#include "rubin/transport_select.hpp"
#include "faultlab/corpus.hpp"
#include "faultlab/lab.hpp"
#include "workloads/bft_harness.hpp"
#include "workloads/echo_kit.hpp"

namespace rubin::workloads {
namespace {

EchoParams small(std::size_t payload) {
  EchoParams p;
  p.payload = payload;
  p.messages = 200;
  return p;
}

void expect_identical(const EchoPoint& a, const EchoPoint& b,
                      const char* what) {
  // Exact double equality on purpose: the runs must replay the same trace.
  EXPECT_EQ(a.latency_us, b.latency_us) << what;
  EXPECT_EQ(a.krps, b.krps) << what;
  EXPECT_EQ(a.p99_us, b.p99_us) << what;
}

TEST(Determinism, Fig3VariantsReplayBitIdentically) {
  for (const std::size_t payload : {1024ul, 65536ul}) {
    const EchoParams p = small(payload);
    expect_identical(run_tcp_echo(p), run_tcp_echo(p), "tcp");
    expect_identical(run_sendrecv_echo(p), run_sendrecv_echo(p), "sendrecv");
    expect_identical(run_readwrite_echo(p), run_readwrite_echo(p),
                     "readwrite");
    const auto cfg = default_channel_config(payload);
    expect_identical(run_channel_echo(p, cfg), run_channel_echo(p, cfg),
                     "channel");
  }
}

struct BftOutcome {
  double mean_latency_us = 0;
  double requests_per_second = 0;
  std::uint64_t committed = 0;

  bool operator==(const BftOutcome&) const = default;
};

BftOutcome run_small_bft(reptor::Backend backend, std::uint32_t pipelines = 1,
                         bool onesided = false) {
  reptor::BftHarness h(backend, 4, 2);
  if (onesided) h.enable_decision_log();
  reptor::ReplicaConfig cfg;
  cfg.batch_size = 4;
  cfg.batch_timeout = sim::microseconds(100);
  cfg.pipelines = pipelines;
  h.add_replicas({}, cfg);

  int done = 0;
  for (std::uint32_t c = 0; c < 2; ++c) {
    auto& client = h.add_client(4 + c);
    h.sim().spawn(
        [](reptor::Client& cl, int& done) -> sim::Task<> {
          co_await cl.start();
          std::string op = "add:1";
          op.resize(256, 'x');
          for (int i = 0; i < 10; ++i) (void)co_await cl.invoke(to_bytes(op));
          ++done;
        }(client, done));
  }
  const sim::Time t0 = h.sim().now();
  while (done < 2 && h.sim().now() < sim::seconds(5)) {
    h.sim().run_until(h.sim().now() + sim::milliseconds(1));
  }
  const sim::Time t1 = h.sim().now();

  BftOutcome out;
  for (std::uint32_t c = 0; c < 2; ++c) {
    if (h.client(c).latencies().count() > 0) {
      out.mean_latency_us += h.client(c).latencies().mean();
    }
    out.committed += h.client(c).latencies().count();
  }
  const double s = sim::to_s(t1 - t0);
  if (s > 0) out.requests_per_second = static_cast<double>(out.committed) / s;
  h.stop_all();
  return out;
}

TEST(Determinism, BftEndToEndReplaysBitIdentically) {
  // pipelines = 4 spreads sequence numbers across COP lanes, so lane
  // interleaving joins the replay contract.
  for (const auto backend : {reptor::Backend::kNio, reptor::Backend::kRubin}) {
    for (const std::uint32_t pipelines : {1u, 4u}) {
      const BftOutcome a = run_small_bft(backend, pipelines);
      const BftOutcome b = run_small_bft(backend, pipelines);
      EXPECT_EQ(a.committed, 20u);
      EXPECT_TRUE(a == b) << "backend " << static_cast<int>(backend)
                          << " pipelines " << pipelines;
    }
  }
}

TEST(Determinism, OneSidedFastPathReplaysBitIdentically) {
  // The decision-ring commit path (DESIGN.md §12) joins the replay
  // contract: ring writes, poll loops, ack cells, and permission flips
  // are all virtual-time citizens, so two fast-path runs must agree to
  // the bit.
  const BftOutcome a = run_small_bft(reptor::Backend::kRubin, 1, true);
  const BftOutcome b = run_small_bft(reptor::Backend::kRubin, 1, true);
  EXPECT_EQ(a.committed, 20u);
  EXPECT_TRUE(a == b) << "one-sided replay diverged";
}

TEST(Determinism, AdaptiveSelectorReplaysBitIdentically) {
  // The per-frame transport selector is a pure function of the cost model
  // and the live resource state, and its picks are side-effect-free on
  // the data path — so an adaptive-policy run must replay bit-identically.
  nio::TransportPolicy adaptive;
  adaptive.mode = nio::TransportPolicy::Mode::kAdaptive;
  for (const std::size_t payload : {1024ul, 65536ul}) {
    const EchoParams p = small(payload);
    expect_identical(run_adaptive_echo(p, adaptive),
                     run_adaptive_echo(p, adaptive), "adaptive replay");
  }
}

TEST(Determinism, FaultScenariosReplayBitIdentically) {
  // Fault injection must not break the replay contract: the fabric's
  // fault dice, the Byzantine strategies, and the checker's verdict are
  // all pure functions of (scenario, seed). A divergence here means a
  // fault path consulted wall-clock state or an unseeded RNG.
  // The asym/fuzz scenarios run two COP lanes, so their rows also cover
  // lane interleaving under fault injection.
  // The one-sided rows prove the fast-path abuse machinery (raw ring
  // writes, revoked-grant NAKs) replays too.
  for (const char* name :
       {"f1-lossy-fabric", "f1-byz-equivocating-primary",
        "f1-asym-deaf-group", "f1-fuzz-combo", "f1-onesided-forge",
        "f1-onesided-stale-rkey"}) {
    auto s1 = faultlab::find_scenario(name);
    auto s2 = faultlab::find_scenario(name);
    ASSERT_TRUE(s1.has_value() && s2.has_value());
    faultlab::Lab la(std::move(*s1));
    faultlab::Lab lb(std::move(*s2));
    const faultlab::Report a = la.run();
    const faultlab::Report b = lb.run();
    EXPECT_EQ(a.verdict.commit_digest, b.verdict.commit_digest) << name;
    EXPECT_EQ(a.verdict.safe, b.verdict.safe) << name;
    EXPECT_EQ(a.verdict.live, b.verdict.live) << name;
    EXPECT_EQ(a.verdict.recovery, b.verdict.recovery) << name;
    EXPECT_EQ(a.completions, b.completions) << name;
    EXPECT_EQ(a.client_retries, b.client_retries) << name;
    EXPECT_EQ(a.final_view, b.final_view) << name;
    EXPECT_EQ(a.finished_at, b.finished_at) << name;
    EXPECT_EQ(a.frames_dropped, b.frames_dropped) << name;
    EXPECT_EQ(a.frames_corrupted, b.frames_corrupted) << name;
    EXPECT_EQ(a.frames_duplicated, b.frames_duplicated) << name;
    EXPECT_EQ(a.frames_reordered, b.frames_reordered) << name;
  }
}

// Golden pins for the PopLab samplers. The ArrivalStream is specified as a
// pure function of (spec, seed): these constants may only change with an
// explicit, intentional break of the sampler contract (which invalidates
// every recorded population schedule).
namespace {

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  h ^= v;
  return h * 0x100000001B3ull;
}

std::uint64_t arrival_digest(const poplab::CohortSpec& spec,
                             std::uint64_t seed, sim::Time horizon) {
  poplab::ArrivalStream s(spec, seed, horizon);
  std::uint64_t h = 0xCBF29CE484222325ull;
  while (auto a = s.next()) {
    h = fnv1a_mix(h, static_cast<std::uint64_t>(a->at));
    h = fnv1a_mix(h, a->client);
    h = fnv1a_mix(h, a->op);
    h = fnv1a_mix(h, a->bytes);
  }
  return h;
}

}  // namespace

TEST(Determinism, PoplabArrivalStreamsMatchGoldenDigests) {
  poplab::CohortSpec c;
  c.name = "pin";
  c.clients = 64;
  c.arrival.base_rps = 50000.0;
  c.op_space = 16;
  c.zipf_theta = 0.99;
  c.payload_lo = 64;
  c.payload_hi = 1024;
  c.payload_alpha = 1.3;

  c.arrival.kind = poplab::ArrivalSchedule::Kind::kSteady;
  EXPECT_EQ(arrival_digest(c, 42, sim::milliseconds(20)),
            0x821F10AF3E696BC0ull);

  c.arrival.kind = poplab::ArrivalSchedule::Kind::kRamp;
  c.arrival.peak_rps = 100000.0;
  c.arrival.at = sim::milliseconds(15);
  EXPECT_EQ(arrival_digest(c, 42, sim::milliseconds(20)),
            0x50E321CD6C2845F2ull);

  c.arrival.kind = poplab::ArrivalSchedule::Kind::kBurst;
  c.arrival.at = sim::milliseconds(5);
  c.arrival.width = sim::milliseconds(1);
  EXPECT_EQ(arrival_digest(c, 42, sim::milliseconds(20)),
            0x5AFB021C04EE94A9ull);

  // The per-cohort seed derivation Population uses is part of the same
  // pinned surface: golden-ratio stride over the population seed.
  c.arrival.kind = poplab::ArrivalSchedule::Kind::kSteady;
  EXPECT_EQ(arrival_digest(c, 42 + 0x9E3779B97F4A7C15ull * 2,
                           sim::milliseconds(20)),
            0x17E41C235C393B3Full);
}

// ------------------------------------------------- datapath accounting ---

TEST(Datapath, TransportPickCountersCoverEveryLane) {
  // Every pick fires exactly one transport.pick.* counter, so a run's
  // transport mix is auditable after the fact. Each lane is forced by
  // constructing the resource state where it is the argmin (or, for
  // kReadDrain, the only available escape hatch).
  const net::CostModel cm = net::CostModel::roce_10g();
  nio::TransportPolicy policy;
  policy.mode = nio::TransportPolicy::Mode::kAdaptive;
  const nio::TransportSelector sel(cm, policy);
  audit::reset_counters();

  nio::SelectorInputs in;
  in.send_slots_free = 1;
  in.ring_credits = 0;
  // A sluggish receiver poller prices the polled lanes (write, read
  // drain) out; the two-sided lanes then split at the inline crossover.
  in.recv_poll_interval = sim::microseconds(50);
  in.payload = 64;  // under the inline crossover
  EXPECT_EQ(sel.pick(in), nio::TransportKind::kInline);
  in.payload = 4096;  // past the device inline cap
  EXPECT_EQ(sel.pick(in), nio::TransportKind::kSendRecv);
  // A fast poller plus a ring credit: the one-sided write skips the
  // ~5.8 us completion-event chain and wins (write_crossover() == 0).
  in.recv_poll_interval = sim::microseconds(1);
  in.ring_credits = 1;
  EXPECT_EQ(sel.pick(in), nio::TransportKind::kWrite);
  in.ring_credits = 0;
  in.send_slots_free = 0;  // sender starved: receiver-driven pull
  EXPECT_EQ(sel.pick(in), nio::TransportKind::kReadDrain);

  EXPECT_EQ(audit::counter_value("transport.pick.inline"), 1u);
  EXPECT_EQ(audit::counter_value("transport.pick.send_recv"), 1u);
  EXPECT_EQ(audit::counter_value("transport.pick.write"), 1u);
  EXPECT_EQ(audit::counter_value("transport.pick.read"), 1u);
}

TEST(Datapath, SendPathCopiesA64KiBPayloadAtMostOnce) {
  constexpr std::size_t kPayload = 64 * 1024;
  constexpr int kMessages = 20;

  audit::reset_counters();
  EchoParams p;
  p.payload = kPayload;
  p.messages = kMessages;
  (void)run_channel_echo(p, default_channel_config(kPayload));

  // Send-path physical copies (datapath.copy_bytes): the client fills its
  // message buffer once (one copy), then every send travels by handle —
  // the per-message budget is the *server's* NIC snapshot of its echo
  // buffer, i.e. at most one copy of the payload per message end-to-end.
  // Receiver-side copies are counted separately (and deliberately stay:
  // the receive-side copy is the paper's measured effect, §IV).
  const std::uint64_t send_copies =
      audit::counter_value("datapath.copy_bytes");
  EXPECT_GT(send_copies, 0u);
  EXPECT_LE(send_copies, kPayload * (kMessages + 2));

  const std::uint64_t recv_copies =
      audit::counter_value("datapath.recv_copy_bytes");
  // The receiver-side copy fires once per delivered message per side.
  EXPECT_GE(recv_copies, kPayload * kMessages);
}

}  // namespace
}  // namespace rubin::workloads
