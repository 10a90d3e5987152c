// OpenMP helpers shared by all five system re-implementations.
//
// The paper varies the thread count from 1 to 72 per run; ThreadScope makes
// that per-run override exception-safe. atomic_fetch_min implements the
// compare-and-swap min-relaxation idiom (SSSP) of the original codebases.
#pragma once

#include <omp.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <vector>

// ThreadSanitizer cannot see the synchronization inside GCC's libgomp
// (the runtime is not built with TSan instrumentation), so every
// happens-before edge OpenMP provides — team fork, implicit/explicit
// barriers, region join — is invisible to it and surfaces as a false
// data race. The helpers below re-declare exactly those edges through
// TSan's annotation interface: every writer calls release() before the
// real synchronization point and every reader calls acquire() after it.
// They assert only what the OpenMP memory model already guarantees, so
// genuine races (conflicting accesses *between* barriers) are still
// reported, and they compile to nothing outside -fsanitize=thread.
#if defined(__SANITIZE_THREAD__)
#define EPGS_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define EPGS_TSAN_ENABLED 1
#endif
#endif

#ifdef EPGS_TSAN_ENABLED
extern "C" {
void __tsan_acquire(void* addr);
void __tsan_release(void* addr);
}
#endif

// One handoff cannot be annotated from user code at all: GCC outlines a
// `#pragma omp parallel` body into a clone that receives a closure
// struct written on the forking thread's stack *at the pragma itself*,
// and worker threads read that struct before any user statement runs.
// Functions that contain a parallel pragma are therefore marked
// EPGS_NO_SANITIZE_THREAD and kept free of real work — the per-thread
// bodies live in separate, fully instrumented functions (marked
// EPGS_TSAN_NOINLINE so the inliner cannot fold them back into the
// uninstrumented clone under TSan).
#ifdef EPGS_TSAN_ENABLED
#define EPGS_NO_SANITIZE_THREAD __attribute__((no_sanitize("thread")))
#define EPGS_TSAN_NOINLINE __attribute__((noinline))
#else
#define EPGS_NO_SANITIZE_THREAD
#define EPGS_TSAN_NOINLINE
#endif

namespace epgs {

inline void annotate_happens_before(void* addr) {
#ifdef EPGS_TSAN_ENABLED
  __tsan_release(addr);
#else
  (void)addr;
#endif
}

inline void annotate_happens_after(void* addr) {
#ifdef EPGS_TSAN_ENABLED
  __tsan_acquire(addr);
#else
  (void)addr;
#endif
}

/// One OpenMP synchronization point, named by this object's address.
/// Usage at a fork: master release()s before `#pragma omp parallel`,
/// each thread acquire()s as its first statement. At a join/barrier:
/// each thread release()s as its last statement before the barrier,
/// every reader acquire()s after it. Many-release/many-acquire is fine:
/// TSan annotation clocks accumulate across releasers.
class OmpHbEdge {
 public:
  void release() { annotate_happens_before(&tag_); }
  void acquire() { annotate_happens_after(&tag_); }

 private:
  char tag_ = 0;  // only the address identifies the edge
};

/// RAII override of the OpenMP thread count.
class ThreadScope {
 public:
  explicit ThreadScope(int num_threads)
      : saved_(omp_get_max_threads()) {
    if (num_threads > 0) omp_set_num_threads(num_threads);
  }
  ~ThreadScope() { omp_set_num_threads(saved_); }
  ThreadScope(const ThreadScope&) = delete;
  ThreadScope& operator=(const ThreadScope&) = delete;

 private:
  int saved_;
};

/// Current maximum OpenMP parallelism.
inline int max_threads() { return omp_get_max_threads(); }

/// Atomically do `*p = min(*p, val)`; returns true iff val became the new
/// minimum (i.e., we won the relaxation).
template <typename T>
bool atomic_fetch_min(std::atomic<T>* p, T val) {
  T cur = p->load(std::memory_order_relaxed);
  while (val < cur) {
    if (p->compare_exchange_weak(cur, val, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

/// Exclusive prefix sum: out[i] = sum(in[0..i)), returns total.
/// Sequential reference implementation. Hot paths (CSR construction,
/// frontier compaction) use parallel_exclusive_prefix_sum from
/// core/frontier.hpp; this serial version remains the oracle for tests
/// and the baseline for the prefix-sum microbenchmark.
template <typename T, typename AIn, typename AOut>
T exclusive_prefix_sum(const std::vector<T, AIn>& in,
                       std::vector<T, AOut>& out) {
  out.resize(in.size() + 1);
  T total{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    out[i] = total;
    total += in[i];
  }
  out[in.size()] = total;
  return total;
}

/// Block size for deterministic_block_sum. 4096 doubles = 32 KiB, one
/// L1-sized strip; small enough to balance, large enough to amortize.
inline constexpr std::size_t kDetSumBlock = 4096;

namespace parallel_detail {

template <typename R, typename F>
EPGS_TSAN_NOINLINE inline R sum_block(F& f, std::size_t lo,
                                      std::size_t hi) {
  R s{};
  for (std::size_t i = lo; i < hi; ++i) s += f(i);
  return s;
}

/// Per-thread body of parallel_tasks, kept out of the region wrapper so
/// it stays TSan-instrumented.
template <typename Body>
EPGS_TSAN_NOINLINE void task_loop(int count, std::atomic<int>& next,
                                  Body& body, OmpHbEdge& fork,
                                  OmpHbEdge& join) {
  fork.acquire();
  for (int i = next.fetch_add(1, std::memory_order_relaxed); i < count;
       i = next.fetch_add(1, std::memory_order_relaxed)) {
    body(i);
  }
  join.release();
}

}  // namespace parallel_detail

/// Run body(0) ... body(count - 1) on the current OpenMP team, each index
/// once. Indices go out in ascending order to whichever thread comes free
/// (dynamic scheduling, one at a time), so list the slowest tasks first.
/// The region itself allocates nothing and `body` must not throw: an
/// exception cannot leave an OpenMP region.
template <typename Body>
EPGS_NO_SANITIZE_THREAD void parallel_tasks(int count, Body body) {
  std::atomic<int> next{0};
  OmpHbEdge fork, join;
  fork.release();
#pragma omp parallel
  parallel_detail::task_loop(count, next, body, fork, join);
  join.acquire();
}

/// Deterministic parallel sum of f(0) + ... + f(n-1).
///
/// `#pragma omp reduction(+)` combines per-thread partials in an
/// unspecified order, so a floating-point reduction changes in the last
/// bits when the thread count changes — which would make PageRank's
/// dangling mass and convergence norm (and hence every subsequent
/// iteration) thread-count-dependent. This helper instead sums fixed
/// kDetSumBlock-element blocks in parallel and combines the block
/// partials serially in ascending block order: the result is a pure
/// function of n and f, independent of the thread count and schedule.
/// (It is a *different* rounding than a straight serial left fold, so
/// compare against the serial oracle with a tolerance, but compare
/// across thread counts exactly.)
template <typename R, typename F>
EPGS_NO_SANITIZE_THREAD R deterministic_block_sum(std::size_t n, F f) {
  if (n == 0) return R{};
  const std::size_t nblocks = (n + kDetSumBlock - 1) / kDetSumBlock;
  if (nblocks == 1 || omp_get_max_threads() == 1) {
    R total{};
    for (std::size_t b = 0; b < nblocks; ++b) {
      total += parallel_detail::sum_block<R>(
          f, b * kDetSumBlock, std::min(n, (b + 1) * kDetSumBlock));
    }
    return total;
  }
  std::vector<R> partial(nblocks);
  OmpHbEdge fork, join;
  fork.release();
#pragma omp parallel
  {
    fork.acquire();
#pragma omp for schedule(static)
    for (std::int64_t b = 0; b < static_cast<std::int64_t>(nblocks);
         ++b) {
      const auto lo = static_cast<std::size_t>(b) * kDetSumBlock;
      partial[static_cast<std::size_t>(b)] =
          parallel_detail::sum_block<R>(f, lo,
                                        std::min(n, lo + kDetSumBlock));
    }
    join.release();
  }
  join.acquire();
  R total{};
  for (const R& p : partial) total += p;
  return total;
}

}  // namespace epgs
