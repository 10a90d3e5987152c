#include "core/numa_alloc.hpp"

#include <sys/mman.h>

#include <new>

namespace epgs {

namespace {

std::size_t round_up_page(std::size_t bytes) {
  constexpr std::size_t kPage = 4096;
  return (bytes + kPage - 1) / kPage * kPage;
}

}  // namespace

void* numa_alloc_bytes(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  if (bytes < kMmapThreshold) {
    // Plain new, not an over-aligned one: glibc 2.36's memalign does not
    // reuse the chunks it freed, so a 64-byte-aligned new grew the heap
    // by every freed block on each rebuild of a CSR (3.3 MB per GraphMat
    // rebuild at Kronecker s14).
    return ::operator new(bytes);
  }
  const std::size_t len = round_up_page(bytes);
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) {
    // Large blocks are mmap-only: a heap fallback could not be told
    // apart at free time (munmap on heap pages succeeds silently and
    // corrupts the arena). The resource governor treats bad_alloc as a
    // survivable per-trial failure.
    throw std::bad_alloc{};
  }
#ifdef MADV_HUGEPAGE
  // Every mmap'd block is at least one 2 MiB huge page long. A kernel or
  // container with THP disabled refuses the advice (EINVAL); 4 KiB pages
  // then serve the block as well, so the refusal is ignored.
  (void)::madvise(p, len, MADV_HUGEPAGE);
#endif
  return p;
}

void numa_free_bytes(void* p, std::size_t bytes) noexcept {
  if (p == nullptr || bytes == 0) return;
  if (bytes < kMmapThreshold) {
    ::operator delete(p);
    return;
  }
  ::munmap(p, round_up_page(bytes));
}

}  // namespace epgs
