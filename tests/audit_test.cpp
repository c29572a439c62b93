// Tests for the runtime invariant-audit layer (common/audit) and the
// misuse classes it is wired to catch: BufferPool lifecycle violations,
// operations on cancelled selector keys, and simulator heap corruption.
//
// Audit failures normally abort; these tests install audit::ScopedCapture
// so destructor-side checks can be exercised without death tests. One
// death test at the end demonstrates the fatal path is real.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/audit.hpp"
#include "net/fabric.hpp"
#include "rubin/buffer_pool.hpp"
#include "rubin/context.hpp"
#include "rubin/selector.hpp"
#include "sim/simulator.hpp"
#include "verbs/cm.hpp"
#include "verbs/memory.hpp"

namespace rubin {
namespace {

// ------------------------------------------------------------ primitives -

TEST(AuditPrimitives, CaptureRecordsInsteadOfAborting) {
  audit::ScopedCapture cap;
  const auto before = audit::failure_count();
  RUBIN_AUDIT_ASSERT("test", 1 + 1 == 3, "arithmetic is broken");
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("arithmetic is broken"));
  EXPECT_TRUE(cap.saw("1 + 1 == 3"));  // the stringized condition rides along
  EXPECT_EQ(audit::failure_count(), before + 1);
}

TEST(AuditPrimitives, PassingAssertIsSilent) {
  audit::ScopedCapture cap;
  RUBIN_AUDIT_ASSERT("test", 2 + 2 == 4, "should not fire");
  EXPECT_EQ(cap.count(), 0u);
}

TEST(AuditPrimitives, CapturesNest) {
  audit::ScopedCapture outer;
  {
    audit::ScopedCapture inner;
    RUBIN_AUDIT_ASSERT("test", false, "goes to innermost");
    EXPECT_EQ(inner.count(), 1u);
  }
  RUBIN_AUDIT_ASSERT("test", false, "goes to outer after inner dies");
  EXPECT_EQ(outer.count(), 1u);
  EXPECT_TRUE(outer.saw("goes to outer after inner dies"));
}

void count_site() { RUBIN_AUDIT_COUNT("test.site", 1); }

template <typename T>
void count_size_of(T) {
  RUBIN_AUDIT_COUNT("test.template", sizeof(T));
}

TEST(AuditPrimitives, CountersAccumulateAndReset) {
  audit::reset_counters();
  EXPECT_EQ(audit::counter_value("test.widget"), 0u);
  // rubinlint:allow(audit-xref-unknown) a name no site ever counts
  EXPECT_EQ(audit::counter_value("test.never_counted"), 0u);
  // Two sites, one name: both land in the same slot.
  RUBIN_AUDIT_COUNT("test.widget", 1);
  RUBIN_AUDIT_COUNT("test.widget", 2);
  EXPECT_EQ(audit::counter_value("test.widget"), 3u);
  count_site();
  using Row = std::pair<std::string, std::uint64_t>;
  EXPECT_EQ(audit::counters(),
            (std::vector<Row>{{"test.site", 1}, {"test.widget", 3}}));
  audit::reset_counters();
  EXPECT_TRUE(audit::counters().empty());
  EXPECT_EQ(audit::counter_value("test.widget"), 0u);
  // A site interned before the reset counts from zero after it.
  count_site();
  EXPECT_EQ(audit::counter_value("test.site"), 1u);
}

TEST(AuditPrimitives, TemplateInstantiationsShareOneCounter) {
  audit::reset_counters();
  count_size_of(std::uint8_t{0});
  count_size_of(std::uint64_t{0});
  EXPECT_EQ(audit::counter_value("test.template"), 9u);
}

TEST(AuditPrimitives, ScopeCheckFiresOnExit) {
  audit::ScopedCapture cap;
  bool balanced = false;
  {
    RUBIN_AUDIT_SCOPE("test", "scope left unbalanced", [&] { return balanced; });
    EXPECT_EQ(cap.count(), 0u);  // not checked until scope exit
  }
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("scope left unbalanced"));
  {
    RUBIN_AUDIT_SCOPE("test", "never fires", [&] { return balanced; });
    balanced = true;
  }
  EXPECT_EQ(cap.count(), 1u);
}

// ----------------------------------------------------------- buffer pool -

class BufferPoolAudit : public ::testing::Test {
 protected:
  verbs::ProtectionDomain pd;
};

TEST_F(BufferPoolAudit, DoubleReleaseIsCaught) {
  nio::BufferPool pool(pd, 4, 256, 0);
  const auto slot = pool.acquire();
  ASSERT_TRUE(slot.has_value());
  pool.release(*slot);

  audit::ScopedCapture cap;
  pool.release(*slot);  // the misuse
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("double release"));
  // The bogus release was dropped: the pool's accounting stays sane.
  EXPECT_EQ(pool.free_count(), pool.count());
  EXPECT_EQ(pool.acquired_count(), 0u);
}

TEST_F(BufferPoolAudit, ReleasingANeverAcquiredSlotIsCaught) {
  nio::BufferPool pool(pd, 4, 256, 0);
  audit::ScopedCapture cap;
  pool.release(2);  // in range, but acquire() never handed it out
  EXPECT_TRUE(cap.saw("double release"));
  EXPECT_EQ(pool.free_count(), pool.count());
}

TEST_F(BufferPoolAudit, OutOfRangeReleaseThrows) {
  nio::BufferPool pool(pd, 4, 256, 0);
  EXPECT_THROW(pool.release(4), std::out_of_range);
  EXPECT_THROW(pool.release(999), std::out_of_range);
}

TEST_F(BufferPoolAudit, LeakAtDestructionIsCaught) {
  audit::ScopedCapture cap;
  {
    nio::BufferPool pool(pd, 4, 256, 0);
    auto a = pool.acquire();
    auto b = pool.acquire();
    ASSERT_TRUE(a && b);
    pool.release(*a);
    // *b leaks.
  }
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("1 slot(s) leaked at pool destruction"));
}

TEST_F(BufferPoolAudit, CleanLifecycleIsSilent) {
  audit::ScopedCapture cap;
  {
    nio::BufferPool pool(pd, 4, 256, 0);
    for (int round = 0; round < 3; ++round) {
      auto a = pool.acquire();
      auto b = pool.acquire();
      ASSERT_TRUE(a && b);
      pool.release(*b);
      pool.release(*a);
    }
  }
  EXPECT_EQ(cap.count(), 0u);
}

// -------------------------------------------------------------- selector -

class SelectorAudit : public ::testing::Test {
 protected:
  // Abandoned coroutines hold references into the members below;
  // kill them while those members are still alive.
  ~SelectorAudit() override { sim.terminate_processes(); }

  /// Establishes one RUBIN channel pair and returns the server end's key.
  nio::RdmaSelectionKey* make_registered_key() {
    auto listener = ctx_b.listen(5000);
    client_ = ctx_a.connect(1, 5000, {});
    sim.run_until(sim.now() + sim::microseconds(50));
    server_ = listener->accept();
    sim.run_until(sim.now() + sim::microseconds(50));
    listener_ = std::move(listener);
    return selector_.register_channel(server_, nio::kOpReceive);
  }

  sim::Simulator sim;
  net::Fabric fabric{sim, net::CostModel::roce_10g(), 4};
  verbs::Device dev_a{fabric, 0};
  verbs::Device dev_b{fabric, 1};
  verbs::ConnectionManager cm{fabric};
  nio::RubinContext ctx_a{dev_a, cm};
  nio::RubinContext ctx_b{dev_b, cm};
  nio::RdmaSelector selector_{ctx_b};
  std::shared_ptr<nio::RdmaChannel> client_;
  std::shared_ptr<nio::RdmaChannel> server_;
  std::shared_ptr<nio::RdmaServerChannel> listener_;
};

TEST_F(SelectorAudit, InterestChangeOnCancelledKeyIsCaught) {
  auto* key = make_registered_key();
  key->cancel();

  audit::ScopedCapture cap;
  key->set_interest_ops(nio::kOpSend);  // the misuse
  EXPECT_EQ(cap.count(), 1u);
  EXPECT_TRUE(cap.saw("set_interest_ops on a cancelled key"));
}

TEST_F(SelectorAudit, AttachOnCancelledKeyIsCaught) {
  auto* key = make_registered_key();
  key->cancel();

  audit::ScopedCapture cap;
  key->attach(42);  // the misuse
  EXPECT_TRUE(cap.saw("attach on a cancelled key"));
}

TEST_F(SelectorAudit, NormalKeyUseIsSilent) {
  auto* key = make_registered_key();
  audit::ScopedCapture cap;
  key->set_interest_ops(nio::kOpReceive | nio::kOpSend);
  key->attach(42);
  // One timed select pass exercises the sweep + ready-scan audits too.
  sim.spawn([](nio::RdmaSelector& sel) -> sim::Task<> {
    co_await sel.select(sim::microseconds(10));
  }(selector_));
  sim.run_until(sim.now() + sim::microseconds(50));
  EXPECT_EQ(cap.count(), 0u);
}

// ------------------------------------------------------------- simulator -

TEST(SimulatorAudit, TimerHeapValidatesUnderLoad) {
  sim::Simulator sim;
  EXPECT_TRUE(sim.validate_heap());
  for (int i = 0; i < 32; ++i) {
    sim.spawn([](sim::Simulator& s, int k) -> sim::Task<> {
      co_await s.sleep(sim::microseconds((k * 37) % 11));
      co_await s.sleep(sim::microseconds(k % 5));
    }(sim, i));
  }
  EXPECT_TRUE(sim.validate_heap());
  sim.run_until(sim.now() + sim::microseconds(3));
  EXPECT_TRUE(sim.validate_heap());
  sim.run();
  EXPECT_TRUE(sim.validate_heap());
}

TEST(SimulatorAudit, EventRoutingCountersTrackFastPaths) {
  // Each scheduling API must take its intended queue (DESIGN.md §5): the
  // coroutine fast path never builds a UniqueFunction, same-instant work
  // goes through the ring, future work through the sorted run or heap.
  audit::reset_counters();
  sim::Simulator sim;

  // Erased path: schedule_at/post build a slot-held UniqueFunction.
  for (int i = 0; i < 5; ++i) sim.schedule_after(100 + i, [] {});
  sim.post([] {});
  EXPECT_EQ(audit::counter_value("sim.schedule.erased"), 6u);
  EXPECT_EQ(audit::counter_value("sim.uf.inline"), 6u);
  EXPECT_EQ(audit::counter_value("sim.uf.heap"), 0u);
  EXPECT_EQ(audit::counter_value("sim.schedule.resume"), 0u);

  // Routing: the post went to the same-instant ring, the five monotone
  // future timers to the sorted run, none to the heap.
  EXPECT_EQ(audit::counter_value("sim.enqueue.now_ring"), 1u);
  EXPECT_EQ(audit::counter_value("sim.enqueue.run"), 5u);
  EXPECT_EQ(audit::counter_value("sim.enqueue.heap"), 0u);

  // An out-of-order future timer is the only thing that pays the heap.
  sim.schedule_after(50, [] {});
  EXPECT_EQ(audit::counter_value("sim.enqueue.heap"), 1u);

  // Coroutine fast path: sleep resumes via schedule_resume — no erased
  // schedule, no UniqueFunction construction.
  const auto erased_before = audit::counter_value("sim.schedule.erased");
  const auto inline_before = audit::counter_value("sim.uf.inline");
  sim.spawn([](sim::Simulator& s) -> sim::Task<> {
    co_await s.sleep(10);
    co_await s.sleep(0);  // same-instant resume: ring again
  }(sim));
  sim.run();
  EXPECT_GE(audit::counter_value("sim.schedule.resume"), 2u);
  // spawn()'s start event is erased (+1); the sleeps must not be.
  EXPECT_EQ(audit::counter_value("sim.schedule.erased"), erased_before + 1);
  EXPECT_EQ(audit::counter_value("sim.uf.inline"), inline_before + 1);
  EXPECT_EQ(audit::counter_value("sim.uf.heap"), 0u);
}

#if !defined(RUBIN_FRAME_POOL_OFF)
TEST(SimulatorAudit, FramePoolRecyclesCoroutineFrames) {
  // Identically-shaped coroutine frames must come back from the recycling
  // pool after the first: the DES hot loop's dominant allocation is the
  // Task frame, and the pool turns steady-state churn into pointer moves.
  // (Compiled out under ASan, where pooling would mask use-after-free.)
  audit::reset_counters();
  sim::Simulator sim;
  for (int i = 0; i < 8; ++i) {
    sim.spawn([](sim::Simulator& s) -> sim::Task<> {
      co_await s.sleep(1);
    }(sim));
    sim.run();
  }
  EXPECT_GE(audit::counter_value("sim.frame_pool.fresh"), 1u);
  EXPECT_GE(audit::counter_value("sim.frame_pool.reuse"), 7u);
}
#endif

// ------------------------------------------------------------ fatal path -

using AuditDeathTest = ::testing::Test;

TEST(AuditDeathTest, UncapturedFailureAborts) {
  EXPECT_DEATH(
      audit::fail("test", "deliberate failure", __FILE__, __LINE__),
      "audit failed: deliberate failure");
}

}  // namespace
}  // namespace rubin
