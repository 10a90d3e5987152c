#include "core/proc_stats.hpp"

#include <fcntl.h>
#include <unistd.h>

#include "core/text_scan.hpp"

namespace epgs {

std::uint64_t resident_set_bytes() noexcept {
  // Raw open/pread, not the fs shim: fault injection must never blind the
  // governor or the residency metrics.
  const int fd = ::open("/proc/self/statm", O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[128];
  const ssize_t n = ::pread(fd, buf, sizeof buf, 0);
  ::close(fd);
  if (n <= 0) return 0;
  // "<size> <resident> <shared> ...\n", in pages.
  std::string_view line(buf, static_cast<std::size_t>(n));
  (void)text::next_token(line);
  const auto resident = text::try_parse<std::uint64_t>(text::next_token(line));
  if (!resident) return 0;
  return *resident * static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
}

}  // namespace epgs
