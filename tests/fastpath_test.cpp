// Integration tests for the one-sided fast-path commit (DESIGN.md §12):
// the primary RDMA-writes decision records into per-replica rings, the
// replicas endorse via ack cells, and 2f + 1 endorsements commit —
// while the ordinary message path keeps running underneath as the
// unconditional fallback. RUBIN backend only (the fast path needs rings).
#include <gtest/gtest.h>

#include "common/codec.hpp"
#include "reptor/byzantine.hpp"
#include "workloads/bft_harness.hpp"

namespace rubin::reptor {
namespace {

using sim::Task;

class FastPathTest : public ::testing::Test {
 protected:
  static ReplicaConfig fast_cfg() {
    ReplicaConfig cfg;
    cfg.batch_timeout = sim::microseconds(50);
    cfg.checkpoint_interval = 4;
    cfg.view_change_timeout = sim::milliseconds(5);
    return cfg;
  }

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

  static void expect_no_divergence(BftHarness& h, std::uint64_t executed,
                                   std::uint64_t value) {
    for (NodeId r = 0; r < h.n_replicas(); ++r) {
      EXPECT_EQ(h.replica(r).stats().requests_executed, executed)
          << "replica " << r;
      EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(),
                value)
          << "replica " << r;
    }
  }
};

TEST_F(FastPathTest, FaultFreeCommitsRideTheFastPath) {
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  audit::reset_counters();
  std::vector<std::uint64_t> results;
  run_client(h, client, 10, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], 5u * (i + 1));
  }
  expect_no_divergence(h, 10, 50);
  // Every backup committed at least some batches via 2f + 1 endorsements
  // (the message path may still win the occasional race; it never *has*
  // to carry a batch in a fault-free run).
  std::uint64_t fast_total = 0;
  for (NodeId r = 0; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).view(), 0u);
    fast_total += h.replica(r).stats().fast_commits;
    if (r != 0) {
      EXPECT_GT(h.replica(r).stats().fast_commits, 0u)
          << "backup " << r << " never fast-committed";
    }
  }
  EXPECT_GT(fast_total, 0u);
  EXPECT_GT(audit::counter_value("decision_log.accept"), 0u);
  EXPECT_GT(audit::counter_value("decision_log.fast_commit"), 0u);
  EXPECT_EQ(audit::counter_value("decision_log.reject"), 0u);
  EXPECT_EQ(audit::counter_value("decision_log.fallback"), 0u);
}

TEST_F(FastPathTest, ForgingPrimaryFallsBackWithoutDivergence) {
  // The primary writes well-framed garbage into every ring instead of
  // its authentic records. Replicas authenticate, reject at the MAC
  // layer, suspend their fast path — and the message path (which the
  // forger still serves, or the view change would remove it) commits
  // everything. No divergence, no lost requests.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  h.replica(0).set_strategy(make_fastpath_abuser(FastPathAbuse::kForge));
  auto& client = h.add_client(4);
  audit::reset_counters();
  std::vector<std::uint64_t> results;
  run_client(h, client, 8, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 8u);
  expect_no_divergence(h, 8, 40);
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).stats().fast_commits, 0u) << "replica " << r;
  }
  EXPECT_GT(audit::counter_value("decision_log.reject"), 0u);
  EXPECT_GT(audit::counter_value("decision_log.fallback"), 0u);
  EXPECT_EQ(audit::counter_value("decision_log.fast_commit"), 0u);
}

TEST_F(FastPathTest, TornWriterStallsFastPathButNotAgreement) {
  // Torn slots are "not arrived yet" forever: the fast path simply never
  // fires (no suspension, no rejects — a canary mismatch is
  // indistinguishable from an in-flight write) and the message path
  // commits every batch.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  h.replica(0).set_strategy(make_fastpath_abuser(FastPathAbuse::kTorn));
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 8, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 8u);
  expect_no_divergence(h, 8, 40);
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).stats().fast_commits, 0u);
  }
  // The torn slots were seen and classified, on at least one follower.
  std::uint64_t torn = 0;
  for (NodeId r = 1; r < 4; ++r) {
    torn += h.decision_log(r)->stats().torn_slots;
  }
  EXPECT_GT(torn, 0u);
}

TEST_F(FastPathTest, ReplayingPrimaryCannotDoubleDeliver) {
  // Genuine MACs, stale content, stamped over a consumed slot: the
  // poller's (seq, view) framing plus the replica's executed-watermark
  // make the replay invisible. Every request executes exactly once.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  h.replica(0).set_strategy(make_fastpath_abuser(FastPathAbuse::kReplay));
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 8, results);
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(results[static_cast<std::size_t>(i)], 5u * (i + 1));
  }
  expect_no_divergence(h, 8, 40);
}

TEST_F(FastPathTest, DeposedPrimaryKeepsWritingAndOnlyCollectsNaks) {
  // The permission-flip payoff. The kStaleRkey abuser proposes a couple
  // of batches (caching the view-0 grants through its publishes), goes
  // silent to force a view change, and then keeps writing through the
  // cached — now revoked — grant. Every probe bounces with
  // kRemoteAccessError, and the group commits everything under the new
  // primary, whose own fast path works in view 1.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  h.replica(0).set_strategy(make_fastpath_abuser(FastPathAbuse::kStaleRkey));
  ClientConfig ccfg;
  ccfg.retry_timeout = sim::milliseconds(4);
  auto& client = h.add_client(4, ccfg);
  std::vector<std::uint64_t> results;
  run_client(h, client, 5, results);
  h.sim().run_until(sim::seconds(3));

  ASSERT_EQ(results.size(), 5u);
  EXPECT_EQ(results.back(), 25u);
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_GE(h.replica(r).view(), 1u) << "replica " << r;
    EXPECT_EQ(h.replica(r).stats().requests_executed, 5u);
  }
  // Rings flipped: one permission rotation per replica per view entered.
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_GE(h.decision_log(r)->stats().permission_flips, 1u);
  }
  // The deposed primary's probes all NAKed — nothing it wrote after the
  // flip was ever consumable.
  EXPECT_GE(h.decision_log(0)->stats().write_naks, 1u);
}

TEST_F(FastPathTest, ViewChangeCarriesFastEndorsementsForward) {
  // Safety across views: sequences endorsed via the fast path (possibly
  // sitting in some peer's commit quorum) survive the view change like
  // prepared ones — nothing committed in view v is lost in view v + 1.
  BftHarness h(Backend::kRubin, 4, 1);
  h.enable_decision_log();
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 6, results);
  h.sim().run_until(sim::microseconds(200));
  const std::uint64_t before = h.replica(1).stats().requests_executed;
  h.replica(0).inject_crash();
  h.sim().run_until(sim::seconds(2));

  ASSERT_EQ(results.size(), 6u);
  // Replies are monotone: every result the client accepted is a counter
  // value that all live replicas agree on after the rotation.
  for (NodeId r = 1; r < 4; ++r) {
    EXPECT_EQ(h.replica(r).stats().requests_executed, 6u);
    EXPECT_EQ(dynamic_cast<const CounterApp&>(h.replica(r).app()).value(),
              30u);
    EXPECT_GE(h.replica(r).view(), 1u);
  }
  EXPECT_GE(results.size(), before);
}

TEST_F(FastPathTest, ZeroCopyReceiveFlagPlumbsThroughHarness) {
  // Deployment plumbing for the zero_copy_receive opt-in: the harness
  // flag reaches every RUBIN transport (replicas and clients), and the
  // group still agrees with it on.
  BftHarness h(Backend::kRubin, 4, 1);
  h.set_zero_copy_receive(true);
  EXPECT_TRUE(h.channel_config().zero_copy_receive);
  h.add_replicas({}, fast_cfg());
  auto& client = h.add_client(4);
  std::vector<std::uint64_t> results;
  run_client(h, client, 6, results);
  h.sim().run_until(sim::seconds(2));
  ASSERT_EQ(results.size(), 6u);
  expect_no_divergence(h, 6, 30);
}

}  // namespace
}  // namespace rubin::reptor
