#include "graph/cache_lock.hpp"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <sys/file.h>
#include <unistd.h>

#include "core/error.hpp"
#include "core/text_scan.hpp"

namespace epgs {
namespace {

constexpr auto kPollInterval = std::chrono::milliseconds(10);

}  // namespace

bool CacheLock::acquire(const std::filesystem::path& path,
                        double timeout_seconds) {
  release();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    throw IoError("cannot open cache lock " + path.string() + ": " +
                  std::strerror(errno));
  }

  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    if (::flock(fd, LOCK_EX | LOCK_NB) == 0) break;
    if (errno == EINTR) continue;
    if (errno != EWOULDBLOCK) {
      const int saved = errno;
      ::close(fd);
      throw IoError("flock failed for " + path.string() + ": " +
                    std::strerror(saved));
    }
    contended_ = true;
    // A holder that died mid-build does not reach this branch: the kernel
    // released its flock at process exit and the next poll wins. Only a
    // *live* holder makes us wait.
    if (std::chrono::steady_clock::now() >= deadline) {
      ::close(fd);
      return false;
    }
    std::this_thread::sleep_for(kPollInterval);
  }

  // Record our pid for waiter diagnostics (best effort: losing this write
  // costs an error message detail, not correctness).
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, "%ld\n",
                                static_cast<long>(::getpid()));
  (void)::ftruncate(fd, 0);
  (void)::pwrite(fd, buf, static_cast<std::size_t>(len), 0);

  fd_ = fd;
  path_ = path;
  return true;
}

void CacheLock::release() noexcept {
  if (fd_ >= 0) {
    // Closing the fd drops the flock; the file itself stays behind as a
    // rendezvous point for future builders.
    ::close(fd_);
    fd_ = -1;
  }
  contended_ = false;
  path_.clear();
}

pid_t CacheLock::holder_pid(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return 0;
  char buf[32];
  const ssize_t n = ::read(fd, buf, sizeof buf);
  ::close(fd);
  if (n <= 0) return 0;
  // "<pid>\n"; anything else (a torn or foreign write) reads as 0.
  const std::string_view content(buf, static_cast<std::size_t>(n));
  return text::try_parse<pid_t>(content.substr(0, content.find('\n')))
      .value_or(0);
}

bool CacheLock::holder_alive(const std::filesystem::path& path) {
  const pid_t pid = holder_pid(path);
  if (pid <= 0) return false;
  return ::kill(pid, 0) == 0 || errno == EPERM;
}

}  // namespace epgs
