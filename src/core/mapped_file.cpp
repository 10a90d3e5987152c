#include "core/mapped_file.hpp"

#include <atomic>
#include <cerrno>
#include <cstring>
#include <utility>

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "core/error.hpp"
#include "core/fs_shim.hpp"

namespace epgs {
namespace {

std::atomic<bool> g_force_buffered{false};

/// RAII file descriptor: the map (or fallback read) either succeeds with
/// the fd closed, or throws with the fd closed.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

void MappedFile::force_buffered(bool on) {
  g_force_buffered.store(on, std::memory_order_relaxed);
}

MappedFile::MappedFile(const std::filesystem::path& path) {
  Fd f{fsx::open_read(path)};
  struct stat st{};
  EPGS_CHECK(::fstat(f.fd, &st) == 0,
             "cannot stat " + path.string() + ": " + std::strerror(errno));
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ == 0) {
    data_ = "";  // a valid empty view; mmap(0) is an error
    return;
  }

  if (!g_force_buffered.load(std::memory_order_relaxed)) {
    // fsx::mmap_read returns nullptr on failure (real or injected), which
    // degrades to the buffered path below rather than aborting the read.
    void* p = fsx::mmap_read(f.fd, size_, path);
    if (p != nullptr) {
      // Advisory only: every reader streams sequentially, tell the kernel
      // to read ahead aggressively. Failure is harmless.
      (void)::madvise(p, size_, MADV_SEQUENTIAL);
      data_ = static_cast<const char*>(p);
      mapped_ = true;
      return;
    }
  }

  // Fallback: one buffered read into an owned buffer (still a single
  // copy, unlike the old rdbuf-into-ostringstream slurp which held two).
  // A read error (EIO) throws typed from the shim; EOF before st_size
  // means the file shrank under us — a distinct, equally loud failure
  // rather than a silent truncation.
  buffer_.resize(size_);
  std::size_t done = 0;
  while (done < size_) {
    const std::size_t n =
        fsx::read_some(f.fd, buffer_.data() + done, size_ - done, path);
    if (n == 0) {
      throw IoError("unexpected EOF reading " + path.string() + ": got " +
                    std::to_string(done) + " of " + std::to_string(size_) +
                    " bytes (file truncated while reading?)");
    }
    done += n;
  }
  data_ = buffer_.data();
}

void MappedFile::release() noexcept {
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<char*>(data_), size_);
  }
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  buffer_.clear();
}

MappedFile::~MappedFile() { release(); }

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      mapped_(other.mapped_),
      buffer_(std::move(other.buffer_)) {
  if (!mapped_ && size_ > 0) data_ = buffer_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    release();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    buffer_ = std::move(other.buffer_);
    if (!mapped_ && size_ > 0) data_ = buffer_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
  }
  return *this;
}

}  // namespace epgs
