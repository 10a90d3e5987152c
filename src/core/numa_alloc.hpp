// Memory-locality layer: first-touch allocation for the hot arrays.
//
// Linux assigns the physical page backing a virtual address to the NUMA
// node of the thread that *first touches* it, not the thread that called
// malloc. Graph kernels are bandwidth-bound (the paper's Figs 5/6 hinge
// on this), so every large array — CSR offsets/edges, rank/distance
// vectors, property columns — must be touched by the same thread that
// will later consume it. Two pieces make that possible without libnuma:
//
//  1. DefaultInitAllocator / FirstTouchVector: a std::vector whose
//     resize() default-initializes instead of value-initializing, so for
//     trivial element types no page is touched at allocation time. The
//     kernel's own `schedule(static)` initialization loop then performs
//     the first touch with exactly the thread that owns that index range.
//
//  2. NumaArray: uninitialized raw storage (mmap-backed when large, with
//     transparent-huge-page advice) plus parallel first-touch
//     fill helpers for element types std::vector cannot leave
//     uninitialized (e.g. std::atomic<T>).
//
// Scheduling rule (load-bearing, referenced from the kernels): loops
// that initialize or stream O(n) arrays use `schedule(static)` so the
// touch partition and the consume partition coincide. Edge-bound loops
// over power-law rows may keep `schedule(dynamic, chunk)` with a chunk
// of >= 256 vertices — there, work imbalance costs more than placement,
// and a large chunk still spans whole pages. Do not use dynamic
// schedules with small chunks on arrays that were first-touch placed.
//
// Huge pages: every buffer past the mmap threshold is advised
// madvise(MADV_HUGEPAGE), unconditionally. Kernels or cgroups that reject
// the advice (EINVAL on CI containers with THP disabled) leave 4 KiB
// pages in place; the refusal is ignored, never fatal.
#pragma once

#include <omp.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/parallel.hpp"

namespace epgs {

/// Allocations at or past this size come from mmap (and are eligible for
/// transparent huge pages). 2 MiB = one x86-64 huge page.
inline constexpr std::size_t kMmapThreshold = std::size_t{1} << 21;

/// Arrays smaller than this are filled serially; the parallel fork is
/// not worth it and placement of a few pages does not matter.
inline constexpr std::size_t kFirstTouchSerialLimit = std::size_t{1} << 14;

/// Allocate `bytes` of uninitialized storage, mmap-backed (with
/// MADV_HUGEPAGE) when bytes >= kMmapThreshold, operator new otherwise.
/// Never returns nullptr for bytes > 0 (throws std::bad_alloc).
void* numa_alloc_bytes(std::size_t bytes);

/// Free storage from numa_alloc_bytes. `bytes` must match the
/// allocation size (it selects munmap vs operator delete).
void numa_free_bytes(void* p, std::size_t bytes) noexcept;

namespace numa_detail {

template <typename T, typename V>
EPGS_TSAN_NOINLINE inline void construct_range(T* p, std::size_t lo,
                                               std::size_t hi,
                                               const V& value) {
  for (std::size_t i = lo; i < hi; ++i) {
    ::new (static_cast<void*>(p + i)) T(value);
  }
}

template <typename T, typename F>
EPGS_TSAN_NOINLINE inline void construct_range_with(T* p, std::size_t lo,
                                                    std::size_t hi, F& f) {
  for (std::size_t i = lo; i < hi; ++i) {
    ::new (static_cast<void*>(p + i)) T(f(i));
  }
}

/// [lo, hi) slice of [0, n) for thread t of nt, contiguous blocks in
/// thread order — the same partition `schedule(static)` produces, so a
/// consuming `schedule(static)` loop lands on the pages its own thread
/// touched here.
inline std::pair<std::size_t, std::size_t> static_slice(std::size_t n,
                                                        int t, int nt) {
  const std::size_t chunk = (n + static_cast<std::size_t>(nt) - 1) /
                            static_cast<std::size_t>(nt);
  const std::size_t lo = std::min(n, chunk * static_cast<std::size_t>(t));
  return {lo, std::min(n, lo + chunk)};
}

}  // namespace numa_detail

/// Parallel first-touch construction of p[0..n) from uninitialized
/// storage: thread t placement-news the t-th contiguous block.
template <typename T, typename V>
EPGS_NO_SANITIZE_THREAD void first_touch_fill(T* p, std::size_t n,
                                              const V& value) {
  if (n < kFirstTouchSerialLimit || omp_get_max_threads() == 1) {
    numa_detail::construct_range(p, 0, n, value);
    return;
  }
  OmpHbEdge fork, join;
  fork.release();
#pragma omp parallel
  {
    fork.acquire();
    const auto [lo, hi] = numa_detail::static_slice(
        n, omp_get_thread_num(), omp_get_num_threads());
    numa_detail::construct_range(p, lo, hi, value);
    join.release();
  }
  join.acquire();
}

/// As first_touch_fill, but element i is constructed as T(f(i)).
template <typename T, typename F>
EPGS_NO_SANITIZE_THREAD void first_touch_fill_with(T* p, std::size_t n,
                                                   F f) {
  if (n < kFirstTouchSerialLimit || omp_get_max_threads() == 1) {
    numa_detail::construct_range_with(p, 0, n, f);
    return;
  }
  OmpHbEdge fork, join;
  fork.release();
#pragma omp parallel
  {
    fork.acquire();
    const auto [lo, hi] = numa_detail::static_slice(
        n, omp_get_thread_num(), omp_get_num_threads());
    numa_detail::construct_range_with(p, lo, hi, f);
    join.release();
  }
  join.acquire();
}

/// Allocator that (a) routes storage through numa_alloc_bytes and
/// (b) default-initializes on plain construct(), so vector::resize(n)
/// of a trivial type touches no pages — the kernel's first-touch loop
/// does. Value construction (push_back, assign, fill ctors) behaves
/// exactly like std::allocator.
template <typename T>
struct DefaultInitAllocator {
  using value_type = T;

  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(numa_alloc_bytes(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    numa_free_bytes(p, n * sizeof(T));
  }

  template <typename U>
  void construct(U* p) noexcept(
      std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;  // default-init: no write for POD
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }

  template <typename U>
  friend bool operator==(const DefaultInitAllocator&,
                         const DefaultInitAllocator<U>&) noexcept {
    return true;
  }
  template <typename U>
  friend bool operator!=(const DefaultInitAllocator&,
                         const DefaultInitAllocator<U>&) noexcept {
    return false;
  }
};

/// std::vector whose resize() leaves trivial elements uninitialized.
/// Use for arrays whose contents are produced by a parallel
/// schedule(static) loop (CSR targets, rank vectors, ...).
template <typename T>
using FirstTouchVector = std::vector<T, DefaultInitAllocator<T>>;

/// Fixed-size array of uninitialized storage with parallel first-touch
/// fill. Unlike vector it works for non-movable element types
/// (std::atomic<T>), which the BFS/SSSP/WCC kernels need.
template <typename T>
class NumaArray {
  static_assert(std::is_trivially_destructible_v<T>,
                "NumaArray skips destructors");

 public:
  NumaArray() = default;
  /// Uninitialized storage; call fill()/fill_with() to first-touch.
  explicit NumaArray(std::size_t n)
      : data_(n > 0 ? static_cast<T*>(numa_alloc_bytes(n * sizeof(T)))
                    : nullptr),
        n_(n) {}
  template <typename V>
  NumaArray(std::size_t n, const V& value) : NumaArray(n) {
    fill(value);
  }

  NumaArray(NumaArray&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        n_(std::exchange(o.n_, 0)) {}
  NumaArray& operator=(NumaArray&& o) noexcept {
    if (this != &o) {
      release();
      data_ = std::exchange(o.data_, nullptr);
      n_ = std::exchange(o.n_, 0);
    }
    return *this;
  }
  NumaArray(const NumaArray&) = delete;
  NumaArray& operator=(const NumaArray&) = delete;
  ~NumaArray() { release(); }

  /// Parallel first-touch: element i becomes T(value).
  template <typename V>
  void fill(const V& value) {
    first_touch_fill(data_, n_, value);
  }
  /// Parallel first-touch: element i becomes T(f(i)).
  template <typename F>
  void fill_with(F f) {
    first_touch_fill_with(data_, n_, f);
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  std::size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  T* begin() { return data_; }
  T* end() { return data_ + n_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + n_; }

 private:
  void release() noexcept {
    if (data_ != nullptr) numa_free_bytes(data_, n_ * sizeof(T));
    data_ = nullptr;
    n_ = 0;
  }

  T* data_ = nullptr;
  std::size_t n_ = 0;
};

}  // namespace epgs
