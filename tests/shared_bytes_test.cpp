// Lifetime and slicing semantics of the zero-copy payload substrate.
// These run under the asan preset in CI, so any refcount slip (double
// free, use-after-free through a slice) fails loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "common/audit.hpp"
#include "common/shared_bytes.hpp"

namespace rubin {
namespace {

SharedBytes filled(std::size_t n, std::uint8_t seed) {
  SharedBytes b = SharedBytes::allocate(n);
  std::uint8_t* d = b.mutable_data();
  for (std::size_t i = 0; i < n; ++i) {
    d[i] = static_cast<std::uint8_t>(seed + i);
  }
  return b;
}

TEST(SharedBytes, EmptyOwnsNothing) {
  const SharedBytes b;
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(b.size(), 0u);
  EXPECT_EQ(b.ref_count(), 0u);
  EXPECT_TRUE(b.view().empty());

  // Zero-length allocate and copy_of are also the empty handle.
  EXPECT_EQ(SharedBytes::allocate(0).ref_count(), 0u);
  EXPECT_EQ(SharedBytes::copy_of(ByteView()).ref_count(), 0u);
}

TEST(SharedBytes, CopyBumpsRefcountMoveDoesNot) {
  SharedBytes a = filled(32, 1);
  EXPECT_EQ(a.ref_count(), 1u);
  {
    SharedBytes b = a;  // copy: same allocation
    EXPECT_EQ(a.ref_count(), 2u);
    EXPECT_EQ(b.data(), a.data());

    SharedBytes c = std::move(b);  // move: transfers, no bump
    EXPECT_EQ(a.ref_count(), 2u);
    EXPECT_EQ(c.data(), a.data());
    EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move): asserting moved-from state
  }
  EXPECT_EQ(a.ref_count(), 1u);
}

TEST(SharedBytes, CopyOfIsAPhysicalCopy) {
  const Bytes src = patterned_bytes(100, 7);
  audit::reset_counters();
  const SharedBytes b = SharedBytes::copy_of(src);
  EXPECT_NE(static_cast<const void*>(b.data()),
            static_cast<const void*>(src.data()));
  EXPECT_TRUE(std::equal(b.view().begin(), b.view().end(), src.begin(), src.end()));
  EXPECT_EQ(audit::counter_value("datapath.copy_bytes"), 100u);
}

TEST(SharedBytes, SliceSharesAllocationAndIsCounted) {
  SharedBytes whole = filled(64, 0);
  audit::reset_counters();
  const SharedBytes mid = whole.slice(16, 32);
  EXPECT_EQ(mid.size(), 32u);
  EXPECT_EQ(mid.data(), whole.data() + 16);
  EXPECT_EQ(whole.ref_count(), 2u);
  EXPECT_EQ(audit::counter_value("datapath.copy_bytes"), 0u);
  EXPECT_EQ(audit::counter_value("datapath.slices"), 1u);
  const SharedBytes tail = whole.slice(48);
  EXPECT_EQ(tail.size(), 16u);
  EXPECT_EQ(tail.data(), whole.data() + 48);
}

TEST(SharedBytes, SliceOutlivesEveryFullHandle) {
  SharedBytes tail;
  {
    SharedBytes whole = filled(128, 3);
    tail = whole.slice(100, 28);
  }  // last full-buffer handle dies here
  ASSERT_EQ(tail.size(), 28u);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail.data()[i], static_cast<std::uint8_t>(3 + 100 + i));
  }
  EXPECT_EQ(tail.ref_count(), 1u);
}

TEST(SharedBytes, SliceBoundsAreChecked) {
  SharedBytes b = filled(16, 0);
  EXPECT_THROW((void)b.slice(17, 0), std::out_of_range);
  EXPECT_THROW((void)b.slice(8, 9), std::out_of_range);
  EXPECT_EQ(b.slice(16, 0).size(), 0u);  // empty suffix is fine
  EXPECT_EQ(b.slice(0, 16).size(), 16u);
}

TEST(SharedBytes, EqualityIsContentNotIdentity) {
  const SharedBytes a = SharedBytes::copy_of(patterned_bytes(40, 5));
  const SharedBytes b = SharedBytes::copy_of(patterned_bytes(40, 5));
  const SharedBytes c = SharedBytes::copy_of(patterned_bytes(40, 6));
  EXPECT_NE(a.data(), b.data());
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

TEST(SharedBytes, SelfAssignmentIsSafe) {
  SharedBytes a = filled(24, 9);
  const std::uint8_t* before = a.data();
  a = a;
  EXPECT_EQ(a.data(), before);
  EXPECT_EQ(a.ref_count(), 1u);
  a = std::move(a);  // NOLINT(clang-diagnostic-self-move)
  EXPECT_EQ(a.data(), before);
  EXPECT_EQ(a.ref_count(), 1u);
}

// ----------------------------------------------------------- FrameVec ---

TEST(FrameVec, ComposesSlicesInOrder) {
  SharedBytes head = filled(8, 0);
  SharedBytes body = filled(16, 8);
  FrameVec f;
  f.append(head);
  f.append(SharedBytes{});  // empty slices are dropped
  f.append(body.slice(0, 4));
  EXPECT_EQ(f.slice_count(), 2u);
  EXPECT_EQ(f.total_size(), 12u);

  Bytes out(f.total_size());
  EXPECT_EQ(f.copy_to(MutByteView(out)), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(out[i], static_cast<std::uint8_t>(i));
  }
}

TEST(FrameVec, FlattenMatchesCopyTo) {
  FrameVec f;
  f.append(filled(10, 1));
  f.append(filled(20, 11));
  const SharedBytes flat = f.flatten();
  Bytes gathered(f.total_size());
  f.copy_to(MutByteView(gathered));
  EXPECT_TRUE(std::equal(flat.view().begin(), flat.view().end(),
                         gathered.begin(), gathered.end()));
}

TEST(FrameVec, OverflowThrows) {
  FrameVec f;
  for (std::size_t i = 0; i < FrameVec::kInlineSlices; ++i) {
    f.append(filled(4, static_cast<std::uint8_t>(i)));
  }
  EXPECT_THROW(f.append(filled(4, 99)), std::length_error);
}

TEST(FrameVec, MoveZerosTheSource) {
  FrameVec f;
  f.append(filled(6, 2));
  FrameVec g = std::move(f);
  EXPECT_EQ(g.total_size(), 6u);
  EXPECT_EQ(f.slice_count(), 0u);  // NOLINT(bugprone-use-after-move): asserting moved-from state
  EXPECT_TRUE(f.empty());

  FrameVec h;
  h = std::move(g);
  EXPECT_EQ(h.total_size(), 6u);
  EXPECT_TRUE(g.empty());  // NOLINT(bugprone-use-after-move): asserting moved-from state
}

TEST(FrameVec, SlicesKeepBackingAlive) {
  FrameVec f;
  {
    SharedBytes whole = filled(50, 0);
    f.append(whole.slice(10, 10));
    f.append(whole.slice(30, 5));
  }
  Bytes out(f.total_size());
  f.copy_to(MutByteView(out));
  EXPECT_EQ(out[0], 10);
  EXPECT_EQ(out[10], 30);
}

}  // namespace
}  // namespace rubin
