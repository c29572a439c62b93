// PBFT read-only optimization: fast-path reads, quorum matching, fallback
// under contention, and the latency advantage the optimization exists for.
#include <gtest/gtest.h>

#include "chain/blockchain.hpp"
#include "common/codec.hpp"
#include "workloads/bft_harness.hpp"

namespace rubin::reptor {
namespace {

using sim::Task;

class ReadOnlyTest : public ::testing::TestWithParam<Backend> {
 protected:
  static ReplicaConfig fast_cfg() {
    ReplicaConfig cfg;
    cfg.batch_timeout = sim::microseconds(50);
    cfg.view_change_timeout = sim::milliseconds(20);
    return cfg;
  }
};

TEST_P(ReadOnlyTest, FastPathReadsCommittedState) {
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);

  std::uint64_t read_value = 0;
  double write_lat = 0;
  double read_lat = 0;
  h.sim().spawn([](sim::Simulator& s, Client& c, std::uint64_t& out,
                   double& wlat, double& rlat) -> Task<> {
    co_await c.start();
    sim::Time t0 = s.now();
    (void)co_await c.invoke(to_bytes("add:42"));
    wlat = sim::to_us(s.now() - t0);

    t0 = s.now();
    const Bytes r = co_await c.invoke_read_only(to_bytes("get"));
    rlat = sim::to_us(s.now() - t0);
    Decoder d(r);
    out = d.get_u64().value_or(0);
  }(h.sim(), client, read_value, write_lat, read_lat));
  h.sim().run_until(sim::seconds(2));

  EXPECT_EQ(read_value, 42u);
  EXPECT_EQ(client.stats().read_only_fast, 1u);
  EXPECT_EQ(client.stats().read_only_fallback, 0u);
  // The whole point: one round trip beats three agreement phases.
  EXPECT_LT(read_lat, 0.6 * write_lat)
      << "read " << read_lat << "us vs write " << write_lat << "us";
  // And nothing got ordered for the read.
  EXPECT_EQ(h.replica(0).stats().requests_executed, 1u);
}

TEST_P(ReadOnlyTest, ReadsDoNotMutateState) {
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  std::uint64_t v1 = 0;
  std::uint64_t v2 = 0;
  h.sim().spawn([](Client& c, std::uint64_t& v1, std::uint64_t& v2) -> Task<> {
    co_await c.start();
    (void)co_await c.invoke(to_bytes("add:5"));
    for (int i = 0; i < 5; ++i) {
      (void)co_await c.invoke_read_only(to_bytes("get"));
    }
    const Bytes r1 = co_await c.invoke_read_only(to_bytes("get"));
    Decoder d1(r1);
    v1 = d1.get_u64().value_or(0);
    const Bytes r2 = co_await c.invoke(to_bytes("add:1"));
    Decoder d2(r2);
    v2 = d2.get_u64().value_or(0);
  }(client, v1, v2));
  h.sim().run_until(sim::seconds(2));
  EXPECT_EQ(v1, 5u);
  EXPECT_EQ(v2, 6u);  // reads did not bump the counter
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(), 6u);
  }
}

TEST_P(ReadOnlyTest, CrashedReplicaStillLeavesAQuorum) {
  // 2f+1 = 3 matching replies are still available with one crash.
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({{3, make_crash()}}, fast_cfg());
  auto& client = h.add_client(4);
  std::uint64_t value = 0;
  h.sim().spawn([](Client& c, std::uint64_t& out) -> Task<> {
    co_await c.start();
    (void)co_await c.invoke(to_bytes("add:7"));
    const Bytes r = co_await c.invoke_read_only(to_bytes("get"));
    Decoder d(r);
    out = d.get_u64().value_or(0);
  }(client, value));
  h.sim().run_until(sim::seconds(2));
  EXPECT_EQ(value, 7u);
  EXPECT_EQ(client.stats().read_only_fast, 1u);
}

TEST_P(ReadOnlyTest, MutatingOpThroughReadPathIsRejectedHarmlessly) {
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  std::uint64_t sentinel = 0;
  h.sim().spawn([](Client& c, std::uint64_t& out) -> Task<> {
    co_await c.start();
    // "add" through the read-only path must not mutate anything.
    const Bytes r = co_await c.invoke_read_only(to_bytes("add:100"));
    Decoder d(r);
    out = d.get_u64().value_or(0);
  }(client, sentinel));
  h.sim().run_until(sim::seconds(2));
  EXPECT_EQ(sentinel, ~0ull);  // the app's error marker
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(), 0u);
  }
}

TEST_P(ReadOnlyTest, BlockchainReadOnlyQueries) {
  BftHarness h(GetParam(), 4, 1);
  ReplicaConfig cfg = fast_cfg();
  for (NodeId r = 0; r < 4; ++r) {
    cfg.self = r;
    h.add_replica(r, cfg, std::make_unique<chain::Blockchain>(2));
  }
  auto& client = h.add_client(4);
  std::vector<std::string> results;
  h.sim().spawn([](Client& c, std::vector<std::string>& out) -> Task<> {
    co_await c.start();
    (void)co_await c.invoke(to_bytes("put k1 hello"));
    (void)co_await c.invoke(to_bytes("put k2 world"));
    out.push_back(rubin::to_string(co_await c.invoke_read_only(to_bytes("get k1"))));
    out.push_back(rubin::to_string(co_await c.invoke_read_only(to_bytes("get missing"))));
    out.push_back(rubin::to_string(co_await c.invoke_read_only(to_bytes("height"))));
    out.push_back(rubin::to_string(co_await c.invoke_read_only(to_bytes("put k3 evil"))));
  }(client, results));
  h.sim().run_until(sim::seconds(2));
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(results[0], "hello");
  EXPECT_EQ(results[1], "<nil>");
  EXPECT_EQ(results[2], "1");  // 2 txs sealed into 1 block
  EXPECT_EQ(results[3], "err-readonly");
  const auto& bc = dynamic_cast<const chain::Blockchain&>(h.replica(0).app());
  EXPECT_EQ(bc.get("k3"), std::nullopt);  // nothing leaked through
}

TEST_P(ReadOnlyTest, FallsBackToOrderingWithoutAQuorum) {
  // Cut the client off from two replicas: only 2 replies can arrive, so
  // the 2f+1 = 3 matching quorum is unreachable and the read must fall
  // back to ordered execution — which still succeeds, because f+1 = 2
  // replies are enough for an ordered result and the replicas themselves
  // are fully connected.
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({}, fast_cfg());
  ClientConfig ccfg;
  ccfg.retry_timeout = sim::milliseconds(2);
  auto& client = h.add_client(4, ccfg);

  std::uint64_t value = 0;
  h.sim().spawn([](BftHarness& h, Client& c, std::uint64_t& out) -> Task<> {
    co_await c.start();  // needs full connectivity: the client dials all 4
    (void)co_await c.invoke(to_bytes("add:9"));
    // Now cut the client off from replicas 2 and 3.
    h.fabric().set_partitioned(4, 2, true);
    h.fabric().set_partitioned(4, 3, true);
    const Bytes r = co_await c.invoke_read_only(to_bytes("get"));
    Decoder d(r);
    out = d.get_u64().value_or(0);
  }(h, client, value));
  h.sim().run_until(sim::seconds(3));

  EXPECT_EQ(value, 9u);
  EXPECT_EQ(client.stats().read_only_fast, 0u);
  EXPECT_EQ(client.stats().read_only_fallback, 1u);
}

INSTANTIATE_TEST_SUITE_P(Backends, ReadOnlyTest,
                         ::testing::Values(Backend::kNio, Backend::kRubin),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace rubin::reptor
