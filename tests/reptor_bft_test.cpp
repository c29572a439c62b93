// Integration tests for the PBFT replica group, parameterized over the
// transport backend (NIO/TCP vs RUBIN/RDMA): agreement, batching,
// checkpoints, COP lanes, dedup, and Byzantine fault injection including
// view changes.
#include <gtest/gtest.h>

#include "workloads/bft_harness.hpp"
#include "common/codec.hpp"

namespace rubin::reptor {
namespace {

using sim::Task;

class BftTest : public ::testing::TestWithParam<Backend> {
 protected:
  static ReplicaConfig fast_cfg() {
    ReplicaConfig cfg;
    cfg.batch_timeout = sim::microseconds(50);
    cfg.checkpoint_interval = 4;
    cfg.view_change_timeout = sim::milliseconds(5);
    return cfg;
  }

  /// Drives `count` counter increments from one client; returns results.
  static void run_client(BftHarness& h, Client& client, int count,
                         std::vector<std::uint64_t>& results,
                         std::uint64_t add = 5) {
    h.sim().spawn([](Client& c, int count, std::uint64_t add,
                     std::vector<std::uint64_t>& out) -> Task<> {
      co_await c.start();
      for (int i = 0; i < count; ++i) {
        const Bytes result =
            co_await c.invoke(to_bytes("add:" + std::to_string(add)));
        Decoder d(result);
        out.push_back(d.get_u64().value_or(0));
      }
    }(client, count, add, results));
  }
};

TEST_P(BftTest, SingleClientAgreementAndReplies) {
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 10, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], 5u * (i + 1));
  }
  // All honest replicas executed everything and agree on the state.
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).stats().requests_executed, 10u) << "replica " << r;
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(), 50u);
    EXPECT_EQ(h.replica(r).view(), 0u);
    EXPECT_EQ(h.replica(r).stats().view_changes, 0u);
  }
}

TEST_P(BftTest, MultipleClientsAllServed) {
  BftHarness h(GetParam(), 4, 3);
  h.add_replicas({}, fast_cfg());
  std::vector<std::vector<std::uint64_t>> results(3);
  for (std::uint32_t c = 0; c < 3; ++c) {
    run_client(h, h.add_client(4 + c), 5, results[c], c + 1);
  }
  h.sim().run_until(sim::seconds(2));

  std::uint64_t expect_total = 0;
  for (std::uint32_t c = 0; c < 3; ++c) {
    ASSERT_EQ(results[c].size(), 5u) << "client " << c;
    expect_total += 5 * (c + 1);
  }
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(),
              expect_total);
    EXPECT_EQ(h.replica(r).stats().requests_executed, 15u);
  }
}

TEST_P(BftTest, BatchingCombinesRequests) {
  BftHarness h(GetParam(), 4, 3);
  ReplicaConfig cfg = fast_cfg();
  cfg.batch_timeout = sim::microseconds(400);  // give requests time to pool
  h.add_replicas({}, cfg);
  std::vector<std::vector<std::uint64_t>> results(3);
  for (std::uint32_t c = 0; c < 3; ++c) {
    run_client(h, h.add_client(4 + c), 6, results[c]);
  }
  h.sim().run_until(sim::seconds(2));
  for (std::uint32_t c = 0; c < 3; ++c) ASSERT_EQ(results[c].size(), 6u);
  // 18 requests in fewer than 18 batches => batching happened.
  EXPECT_LT(h.replica(0).stats().batches_committed, 18u);
  EXPECT_EQ(h.replica(0).stats().requests_executed, 18u);
}

TEST_P(BftTest, CheckpointsAdvanceAndGarbageCollect) {
  BftHarness h(GetParam(), 4, 1);
  ReplicaConfig cfg = fast_cfg();
  cfg.batch_size = 1;  // one request per batch -> seq grows fast
  h.add_replicas({}, cfg);
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 12, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 12u);
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_GE(h.replica(r).stable_checkpoint(), 8u) << "replica " << r;
    EXPECT_GT(h.replica(r).stats().checkpoints_stable, 0u);
  }
}

TEST_P(BftTest, CrashedBackupToleratedSilently) {
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({{3, make_crash()}}, fast_cfg());
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 8, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 8u);
  for (NodeId r = 0; r < 3; ++r) {
    EXPECT_EQ(h.replica(r).stats().requests_executed, 8u);
    EXPECT_EQ(h.replica(r).view(), 0u);  // no view change needed
  }
  EXPECT_EQ(h.replica(3).stats().requests_executed, 0u);
}

TEST_P(BftTest, SilentPrimaryTriggersViewChange) {
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({{0, make_silent_primary()}}, fast_cfg());
  ClientConfig ccfg;
  ccfg.retry_timeout = sim::milliseconds(4);
  auto& client = h.add_client(4, ccfg);
  std::vector<std::uint64_t> results;
  run_client(h, client, 5, results);
  h.sim().run_until(sim::seconds(3));

  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results.back(), 25u);
  // The group moved off the faulty primary.
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_GE(h.replica(r).view(), 1u) << "replica " << r;
    EXPECT_EQ(h.replica(r).stats().requests_executed, 5u);
  }
  EXPECT_GE(client.known_view(), 1u);
}

TEST_P(BftTest, EquivocatingPrimaryRemovedByViewChange) {
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({{0, make_equivocating_primary()}}, fast_cfg());
  ClientConfig ccfg;
  ccfg.retry_timeout = sim::milliseconds(4);
  auto& client = h.add_client(4, ccfg);
  std::vector<std::uint64_t> results;
  run_client(h, client, 5, results);
  h.sim().run_until(sim::seconds(3));

  ASSERT_EQ(results.size(), 5u);
  // Safety: every honest replica has the same final state.
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(), 25u);
    EXPECT_GE(h.replica(r).view(), 1u);
  }
}

TEST_P(BftTest, CorruptMacBackupIsHarmless) {
  // Replica 2 garbles its MACs toward even-numbered peers. Quorums still
  // form out of the remaining honest messages.
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({{2, make_corrupt_macs()}}, fast_cfg());
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 6, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 6u);
  // Someone must have rejected replica 2's frames.
  std::uint64_t failures = 0;
  for (NodeId r = 0; r < 4; ++r) failures += h.replica(r).stats().auth_failures;
  EXPECT_GT(failures, 0u);
}

TEST_P(BftTest, CopPipelinesProduceSameResults) {
  BftHarness h(GetParam(), 4, 1);
  ReplicaConfig cfg = fast_cfg();
  cfg.pipelines = 4;
  cfg.batch_size = 2;
  h.add_replicas({}, cfg);
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 12, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 12u);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], 5u * (i + 1));
  }
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(), 60u);
  }
}

TEST_P(BftTest, DuplicateRequestsNotReExecuted) {
  // A tiny retry timeout forces client retransmissions; execution must
  // stay exactly-once.
  BftHarness h(GetParam(), 4, 1);
  h.add_replicas({}, fast_cfg());
  ClientConfig ccfg;
  ccfg.retry_timeout = sim::microseconds(300);  // aggressive retries
  auto& client = h.add_client(4, ccfg);
  std::vector<std::uint64_t> results;
  run_client(h, client, 8, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 8u);
  EXPECT_EQ(results.back(), 40u);  // not inflated by duplicates
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(), 40u);
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, BftTest,
                         ::testing::Values(Backend::kNio, Backend::kRubin),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace rubin::reptor
