#include "core/numa_alloc.hpp"

#include <sys/mman.h>

#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>

namespace epgs {

namespace {

constexpr std::size_t kHugePageSize = std::size_t{1} << 21;

std::atomic<bool> g_huge_pages_enabled{[] {
  const char* env = std::getenv("EPGS_HUGEPAGES");
  return env == nullptr || std::strcmp(env, "0") != 0;
}()};

std::atomic<std::uint64_t> g_hp_requests{0};
std::atomic<std::uint64_t> g_hp_failures{0};
std::atomic<int> g_hp_last_errno{0};

std::size_t round_up_page(std::size_t bytes) {
  constexpr std::size_t kPage = 4096;
  return (bytes + kPage - 1) / kPage * kPage;
}

}  // namespace

void set_huge_pages(bool enabled) {
  g_huge_pages_enabled.store(enabled, std::memory_order_relaxed);
}

bool huge_pages_enabled() {
  return g_huge_pages_enabled.load(std::memory_order_relaxed);
}

HugePageStatus huge_page_status() {
  HugePageStatus s;
  s.requests = g_hp_requests.load(std::memory_order_relaxed);
  s.failures = g_hp_failures.load(std::memory_order_relaxed);
  s.last_errno = g_hp_last_errno.load(std::memory_order_relaxed);
  return s;
}

std::string describe(const HugePageStatus& s) {
  std::ostringstream os;
  os << "huge pages: " << s.requests << " requested, " << s.failures
     << " rejected";
  if (s.failures > 0) {
    os << " (" << std::strerror(s.last_errno)
       << "; falling back to 4 KiB pages)";
  }
  return os.str();
}

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
  if (huge_pages_enabled() && len >= kHugePageSize) {
    g_hp_requests.fetch_add(1, std::memory_order_relaxed);
#ifdef MADV_HUGEPAGE
    if (::madvise(p, len, MADV_HUGEPAGE) != 0) {
      // Graceful degradation: THP disabled kernel-wide or denied by the
      // container runtime. 4 KiB pages still work; just count it.
      g_hp_failures.fetch_add(1, std::memory_order_relaxed);
      g_hp_last_errno.store(errno, std::memory_order_relaxed);
    }
#else
    g_hp_failures.fetch_add(1, std::memory_order_relaxed);
    g_hp_last_errno.store(ENOSYS, std::memory_order_relaxed);
#endif
  }
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
