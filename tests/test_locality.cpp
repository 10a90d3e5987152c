// Memory-locality layer: NUMA-aware allocation, first-touch fills and
// deterministic reductions (core/numa_alloc.hpp).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <utility>
#include <vector>

#include "core/numa_alloc.hpp"
#include "core/parallel.hpp"
#include "core/types.hpp"

namespace epgs {
namespace {

TEST(NumaAlloc, SmallAndLargeBlocksRoundTrip) {
  // Below the mmap threshold: operator new.
  void* small = numa_alloc_bytes(4096);
  ASSERT_NE(small, nullptr);
  std::memset(small, 0xab, 4096);
  numa_free_bytes(small, 4096);

  // Above the threshold: anonymous mmap, zero-filled by the kernel and
  // advised MADV_HUGEPAGE, which a THP-less kernel refuses harmlessly.
  const std::size_t big = (std::size_t{1} << 21) + 4096;
  auto* p = static_cast<unsigned char*>(numa_alloc_bytes(big));
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p[0], 0);
  EXPECT_EQ(p[big - 1], 0);
  p[0] = 1;
  p[big - 1] = 2;
  numa_free_bytes(p, big);
}

TEST(FirstTouch, VectorResizeDoesNotTouchButWorksLikeVector) {
  FirstTouchVector<double> v;
  v.resize(1000);  // default-init: no pages touched here
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  EXPECT_EQ(v[999], 999.0);

  // Value-construction still zeroes, matching std::vector semantics.
  FirstTouchVector<int> z(64, 7);
  EXPECT_EQ(z[0], 7);
  EXPECT_EQ(z[63], 7);

  // Copy/compare against a plain vector.
  std::vector<double> plain(v.begin(), v.end());
  EXPECT_TRUE(std::equal(v.begin(), v.end(), plain.begin()));
}

TEST(FirstTouch, FillPlacesEveryElementAtEveryThreadCount) {
  for (const int t : {1, 2, 4, 8}) {
    ThreadScope scope(t);
    FirstTouchVector<std::uint32_t> v;
    v.resize(100000);
    first_touch_fill_with(v.data(), v.size(),
                          [](std::size_t i) {
                            return static_cast<std::uint32_t>(i * 3);
                          });
    for (std::size_t i = 0; i < v.size(); i += 997) {
      ASSERT_EQ(v[i], static_cast<std::uint32_t>(i * 3)) << "threads " << t;
    }
  }
}

TEST(NumaArrayTest, FillAndFillWithCoverAtomics) {
  ThreadScope scope(4);
  NumaArray<std::atomic<vid_t>> parent(1000, kNoVertex);
  EXPECT_EQ(parent.size(), 1000u);
  for (std::size_t i = 0; i < parent.size(); ++i) {
    ASSERT_EQ(parent[i].load(std::memory_order_relaxed), kNoVertex);
  }

  NumaArray<std::atomic<vid_t>> comp(1000);
  comp.fill_with([](std::size_t i) { return static_cast<vid_t>(i); });
  for (std::size_t i = 0; i < comp.size(); ++i) {
    ASSERT_EQ(comp[i].load(std::memory_order_relaxed),
              static_cast<vid_t>(i));
  }

  // Move transfers ownership; moved-from is empty.
  NumaArray<std::atomic<vid_t>> moved = std::move(comp);
  EXPECT_EQ(moved.size(), 1000u);
  EXPECT_EQ(comp.size(), 0u);  // NOLINT(bugprone-use-after-move)
}

// The deterministic block reduction must return the *same bits* at every
// thread count — that is its whole contract (core/parallel.hpp); the
// PageRank kernels rely on it for thread-count-independent ranks.
TEST(DeterministicBlockSum, BitIdenticalAcrossThreadCounts) {
  const std::size_t n = 100003;  // deliberately not a block multiple
  std::vector<double> xs(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Wide dynamic range makes the sum order-sensitive, so a
    // nondeterministic reduction would be caught.
    xs[i] = (i % 7 == 0 ? 1e12 : 1e-3) / static_cast<double>(i + 1);
  }
  const auto f = [&](std::size_t i) { return xs[i]; };

  double baseline = 0.0;
  {
    ThreadScope scope(1);
    baseline = deterministic_block_sum<double>(n, f);
  }
  for (const int t : {2, 4, 8}) {
    ThreadScope scope(t);
    const double s = deterministic_block_sum<double>(n, f);
    ASSERT_EQ(s, baseline) << "threads " << t;
  }
}

TEST(DeterministicBlockSum, MatchesSerialBlockOrderFold) {
  const std::size_t n = 10000;
  const auto f = [](std::size_t i) {
    return 1.0 / static_cast<double>(i + 1);
  };
  // Reference: fold fixed-size blocks left-to-right, exactly the
  // documented combination order.
  constexpr std::size_t kBlock = 4096;
  double expect = 0.0;
  for (std::size_t lo = 0; lo < n; lo += kBlock) {
    const std::size_t hi = std::min(n, lo + kBlock);
    double partial = 0.0;
    for (std::size_t i = lo; i < hi; ++i) partial += f(i);
    expect += partial;
  }
  ThreadScope scope(4);
  EXPECT_EQ(deterministic_block_sum<double>(n, f), expect);
}

}  // namespace
}  // namespace epgs
