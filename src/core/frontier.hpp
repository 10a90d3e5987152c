// Lock-free frontier machinery shared by all five system
// re-implementations.
//
// The seed code merged per-thread frontier fragments with
// `#pragma omp critical`, which serializes the tail of every parallel
// region and turns the paper's scalability figures into a measurement of
// lock contention. This header provides the replacement primitives, all
// following the GAP Benchmark Suite design (Beamer et al.) and the
// prefix-sum compaction backbone of Dhulipala et al.:
//
//   * SlidingQueue<T>  — a shared array with an atomic append cursor and
//     a [begin, end) read window. Producers reserve slots with one
//     fetch-add per *flush* (not per element); slide_window() publishes
//     everything appended since the last slide as the next window.
//   * LocalBuffer<T>   — cache-line-aligned per-thread staging buffer
//     that batches pushes and flushes them into a SlidingQueue with a
//     single reservation.
//   * parallel_exclusive_prefix_sum — per-thread partial sums, a
//     sequential combine over the (few) partials, and a parallel apply.
//   * bitmap_to_queue  — parallel bitmap -> vertex-queue compaction via
//     per-chunk popcounts and a prefix sum over chunks.
//   * parallel_append  — merge per-thread vectors into one shared vector
//     with prefix-sum slot reservation and a parallel copy; the
//     deterministic (thread-ordered) replacement for critical-section
//     concatenation where output size is not known in advance.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bitmap.hpp"
#include "core/parallel.hpp"

namespace epgs {

/// Shared frontier queue in the style of GAP's SlidingQueue: one backing
/// array holds every element ever appended during a traversal; the
/// current frontier is the window [begin, end). Appends land after the
/// window and become visible as the *next* frontier when slide_window()
/// is called (outside any parallel region).
///
/// Thread-safety contract: reserve()/append via LocalBuffer may race with
/// each other and with reads of the current window; slide_window(),
/// push_back() and reset() are single-threaded control-flow points.
template <typename T>
class SlidingQueue {
 public:
  /// `capacity` bounds the total number of elements appended over the
  /// queue's lifetime (between reset()s), e.g. num_vertices for a BFS
  /// where CAS guarantees each vertex enters the frontier at most once.
  explicit SlidingQueue(std::size_t capacity)
      : shared_(capacity), in_(0) {}

  /// Reserve `count` consecutive slots; returns the first index. One
  /// atomic fetch-add regardless of count.
  std::size_t reserve(std::size_t count) {
    return in_.fetch_add(count, std::memory_order_relaxed);
  }

  /// Direct write into a reserved slot.
  T* data() { return shared_.data(); }

  /// Single-threaded append (setup code, e.g. seeding the root).
  void push_back(T value) { shared_[reserve(1)] = value; }

  /// Publish everything appended since the last slide as the new window.
  void slide_window() {
    begin_ = end_;
    end_ = in_.load(std::memory_order_relaxed);
  }

  /// Drop the window and all appended elements (restart a traversal).
  void reset() {
    begin_ = end_ = 0;
    in_.store(0, std::memory_order_relaxed);
  }

  [[nodiscard]] const T* begin() const { return shared_.data() + begin_; }
  [[nodiscard]] const T* end() const { return shared_.data() + end_; }
  [[nodiscard]] std::size_t size() const { return end_ - begin_; }
  [[nodiscard]] bool empty() const { return begin_ == end_; }
  [[nodiscard]] std::size_t capacity() const { return shared_.size(); }

  /// Move out everything appended so far (window bookkeeping ignored).
  /// Leaves the queue reset. For callers that want a plain vector result
  /// (e.g. Ligra's vertexSubset) rather than a window iteration.
  [[nodiscard]] std::vector<T> take_appended() {
    shared_.resize(in_.load(std::memory_order_relaxed));
    std::vector<T> out = std::move(shared_);
    shared_.clear();
    reset();
    return out;
  }

 private:
  std::vector<T> shared_;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::atomic<std::size_t> in_;
};

/// Per-thread staging buffer feeding a SlidingQueue. Cache-line aligned
/// so neighbouring threads' buffers never share a line. Flush costs one
/// fetch-add + one memcpy-sized copy; the destructor flushes any
/// remainder, so the idiom inside a parallel region is simply
///
///   LocalBuffer<vid_t> lb(queue);
///   ... lb.push_back(v) ...
///   lb.flush();            // or let the destructor do it
template <typename T, std::size_t kCapacity = 1024>
class alignas(64) LocalBuffer {
 public:
  explicit LocalBuffer(SlidingQueue<T>& queue) : queue_(queue) {}
  ~LocalBuffer() { flush(); }
  LocalBuffer(const LocalBuffer&) = delete;
  LocalBuffer& operator=(const LocalBuffer&) = delete;

  void push_back(T value) {
    if (count_ == kCapacity) flush();
    local_[count_++] = value;
  }

  void flush() {
    if (count_ == 0) return;
    const std::size_t start = queue_.reserve(count_);
    std::copy(local_, local_ + count_, queue_.data() + start);
    count_ = 0;
  }

  [[nodiscard]] std::size_t pending() const { return count_; }

 private:
  SlidingQueue<T>& queue_;
  std::size_t count_ = 0;
  T local_[kCapacity];
};

/// Parallel exclusive prefix sum: out[i] = sum(in[0..i)), out has size
/// in.size() + 1, returns the total. Three passes: per-thread partial
/// sums over contiguous chunks, a sequential scan over the (numthreads)
/// partials, and a parallel apply. Falls back to the serial loop below
/// kParallelScanThreshold where thread startup would dominate.
inline constexpr std::size_t kParallelScanThreshold = 1 << 14;

namespace detail {

/// Per-thread body of parallel_exclusive_prefix_sum. Lives outside the
/// region wrapper so it stays fully TSan-instrumented (the wrapper is
/// EPGS_NO_SANITIZE_THREAD for the closure handoff; see
/// core/parallel.hpp). The single/barrier directives are orphaned: they
/// bind to the caller's enclosing parallel region. The OmpHbEdge calls
/// re-declare libgomp's (uninstrumented) barriers to TSan; no-ops
/// outside -fsanitize=thread.
template <typename T>
EPGS_TSAN_NOINLINE void prefix_sum_body(const T* in, T* out, std::size_t n,
                                        std::vector<T>& partial,
                                        OmpHbEdge& hb_fork,
                                        OmpHbEdge& hb_assign,
                                        OmpHbEdge& hb_partials,
                                        OmpHbEdge& hb_combine,
                                        OmpHbEdge& hb_join) {
  hb_fork.acquire();
  const int nt = omp_get_num_threads();
  const int t = omp_get_thread_num();
#pragma omp single
  {
    partial.assign(static_cast<std::size_t>(nt) + 1, T{});
    hb_assign.release();
  }
  hb_assign.acquire();  // implicit barrier at end of single
  const std::size_t chunk = (n + static_cast<std::size_t>(nt) - 1) /
                            static_cast<std::size_t>(nt);
  const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(t));
  const std::size_t hi = std::min(n, lo + chunk);
  T sum{};
  for (std::size_t i = lo; i < hi; ++i) sum += in[i];
  partial[static_cast<std::size_t>(t) + 1] = sum;
  hb_partials.release();
#pragma omp barrier
  hb_partials.acquire();
#pragma omp single
  {
    for (int k = 1; k <= nt; ++k) {
      partial[static_cast<std::size_t>(k)] +=
          partial[static_cast<std::size_t>(k) - 1];
    }
    hb_combine.release();
  }
  hb_combine.acquire();  // implicit barrier at end of single
  T running = partial[static_cast<std::size_t>(t)];
  for (std::size_t i = lo; i < hi; ++i) {
    out[i] = running;
    running += in[i];
  }
  hb_join.release();
}

}  // namespace detail

template <typename T, typename AIn, typename AOut>
EPGS_NO_SANITIZE_THREAD T parallel_exclusive_prefix_sum(
    const std::vector<T, AIn>& in, std::vector<T, AOut>& out) {
  const std::size_t n = in.size();
  out.resize(n + 1);
  if (n < kParallelScanThreshold || omp_get_max_threads() == 1) {
    T total{};
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = total;
      total += in[i];
    }
    out[n] = total;
    return total;
  }

  std::vector<T> partial;
  OmpHbEdge hb_fork, hb_assign, hb_partials, hb_combine, hb_join;
  hb_fork.release();
#pragma omp parallel
  detail::prefix_sum_body(in.data(), out.data(), n, partial, hb_fork,
                          hb_assign, hb_partials, hb_combine, hb_join);
  hb_join.acquire();
  out[n] = partial.back();
  return partial.back();
}

/// Parallel bitmap -> queue compaction (Dhulipala-style pack): popcount
/// each 64-bit word in parallel to get per-chunk output sizes, prefix-sum
/// the sizes, then write each chunk's set bits at its reserved offset.
/// Appends to `queue` (call slide_window() afterwards to publish).
/// Returns the number of vertices appended.
namespace detail {

/// Instrumented per-thread bodies for bitmap_to_queue (orphaned `omp
/// for` directives binding to the wrapper's parallel region).
inline EPGS_TSAN_NOINLINE void bitmap_count_body(const Bitmap& bm,
                                                 std::size_t words,
                                                 std::size_t* word_counts,
                                                 OmpHbEdge& hb_fork,
                                                 OmpHbEdge& hb_done) {
  hb_fork.acquire();
#pragma omp for schedule(static) nowait
  for (std::int64_t w = 0; w < static_cast<std::int64_t>(words); ++w) {
    word_counts[static_cast<std::size_t>(w)] = static_cast<std::size_t>(
        __builtin_popcountll(bm.word(static_cast<std::size_t>(w))));
  }
  hb_done.release();
}

template <typename T>
EPGS_TSAN_NOINLINE void bitmap_scatter_body(const Bitmap& bm,
                                            std::size_t words,
                                            const std::size_t* word_offsets,
                                            std::size_t base, T* out,
                                            OmpHbEdge& hb_fork,
                                            OmpHbEdge& hb_done) {
  hb_fork.acquire();
#pragma omp for schedule(static) nowait
  for (std::int64_t w = 0; w < static_cast<std::int64_t>(words); ++w) {
    std::uint64_t bits = bm.word(static_cast<std::size_t>(w));
    std::size_t pos = base + word_offsets[static_cast<std::size_t>(w)];
    while (bits != 0) {
      const int bit = __builtin_ctzll(bits);
      out[pos++] = static_cast<T>((static_cast<std::size_t>(w) << 6) +
                                  static_cast<std::size_t>(bit));
      bits &= bits - 1;
    }
  }
  hb_done.release();
}

}  // namespace detail

template <typename T>
EPGS_NO_SANITIZE_THREAD std::size_t bitmap_to_queue(const Bitmap& bm,
                                                    SlidingQueue<T>& queue) {
  const std::size_t words = bm.num_words();
  std::vector<std::size_t> word_counts(words);
  OmpHbEdge hb_fork, hb_counts, hb_scatter;  // see core/parallel.hpp
  hb_fork.release();
#pragma omp parallel
  detail::bitmap_count_body(bm, words, word_counts.data(), hb_fork,
                            hb_counts);
  hb_counts.acquire();
  std::vector<std::size_t> word_offsets;
  const std::size_t total =
      parallel_exclusive_prefix_sum(word_counts, word_offsets);
  const std::size_t base = queue.reserve(total);
  hb_fork.release();
#pragma omp parallel
  detail::bitmap_scatter_body(bm, words, word_offsets.data(), base,
                              queue.data(), hb_fork, hb_scatter);
  hb_scatter.acquire();
  return total;
}

/// Merge per-thread result vectors into `out` (appending) with
/// prefix-sum slot reservation and a parallel copy. The replacement for
/// `#pragma omp critical { out.insert(...) }` where the total size is
/// only known after the parallel region. Output order is deterministic
/// (part 0's elements first, then part 1's, ...), unlike the critical
/// version whose order depended on thread arrival.
namespace detail {

/// Instrumented per-thread body for parallel_append (orphaned `omp for`
/// binding to the wrapper's parallel region).
template <typename T>
EPGS_TSAN_NOINLINE void append_body(const std::vector<std::vector<T>>& parts,
                                    const std::size_t* offsets, T* dst,
                                    OmpHbEdge& hb_fork, OmpHbEdge& hb_join) {
  hb_fork.acquire();
#pragma omp for schedule(dynamic, 1) nowait
  for (std::int64_t p = 0; p < static_cast<std::int64_t>(parts.size());
       ++p) {
    const auto& part = parts[static_cast<std::size_t>(p)];
    std::copy(part.begin(), part.end(),
              dst + offsets[static_cast<std::size_t>(p)]);
  }
  hb_join.release();
}

}  // namespace detail

template <typename T>
EPGS_NO_SANITIZE_THREAD void parallel_append(
    std::vector<T>& out, const std::vector<std::vector<T>>& parts) {
  std::vector<std::size_t> sizes(parts.size());
  for (std::size_t p = 0; p < parts.size(); ++p) sizes[p] = parts[p].size();
  std::vector<std::size_t> offsets;
  const std::size_t total = parallel_exclusive_prefix_sum(sizes, offsets);
  const std::size_t base = out.size();
  out.resize(base + total);
  OmpHbEdge hb_fork, hb_join;  // see core/parallel.hpp
  hb_fork.release();
#pragma omp parallel
  detail::append_body(parts, offsets.data(), out.data() + base, hb_fork,
                      hb_join);
  hb_join.acquire();
}

}  // namespace epgs
