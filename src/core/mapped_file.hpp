// MappedFile: read-only RAII view of a whole file.
//
// The fast path mmap()s the file (with MADV_SEQUENTIAL, since every
// reader in this codebase streams front to back) so loads are zero-copy:
// the parser walks the page cache directly instead of draining an
// ifstream into a second heap buffer. GBBS memory-maps its graph inputs
// for exactly this reason. When mmap is unavailable (exotic filesystems,
// or the buffered fallback is forced for testing) the file is read once
// into an owned buffer and the same view interface is served from there —
// callers cannot tell the difference except in speed.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string_view>
#include <vector>

namespace epgs {

class MappedFile {
 public:
  MappedFile() = default;
  /// Map (or read) the whole file through the fs_shim wrappers. Throws
  /// IoError when the file cannot be opened or read (EIO and a short read
  /// that hits EOF early are distinct, typed failures — never a silent
  /// truncation) and ResourceExhaustedError on fd exhaustion. An mmap
  /// failure is not an error: it degrades to the buffered fallback.
  explicit MappedFile(const std::filesystem::path& path);
  ~MappedFile();

  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const char* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::string_view view() const { return {data_, size_}; }
  /// True when the view is a real mapping; false on the buffered fallback.
  [[nodiscard]] bool is_mapped() const { return mapped_; }

  /// Process-wide test hook: force every subsequent MappedFile onto the
  /// buffered-read fallback, proving the two paths byte-identical.
  static void force_buffered(bool on);

 private:
  void release() noexcept;

  const char* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
  std::vector<char> buffer_;  ///< owns the bytes on the fallback path
};

}  // namespace epgs
