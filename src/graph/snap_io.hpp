// SNAP text format I/O.
//
// "A file in the SNAP format consists of one edge per line, with vertices
// separated by whitespace and lines which begin with # are comments."
// (paper, footnote 4). An optional third column carries the edge weight.
// Any dataset in this format can be fed to easy-parallel-graph-*.
#pragma once

#include <charconv>
#include <cstddef>
#include <filesystem>
#include <ostream>
#include <span>
#include <string_view>
#include <type_traits>

#include "graph/edge_list.hpp"

namespace epgs {

/// Parse a SNAP-format document from memory.
/// Vertex ids are used verbatim (no relabeling); num_vertices becomes
/// max(id)+1. Throws EpgsError on malformed lines.
EdgeList parse_snap(std::string_view text);

/// Read a SNAP-format file from disk.
EdgeList read_snap_file(const std::filesystem::path& path);

/// Write an edge list in SNAP format; weights are emitted as a third
/// column iff el.weighted. A comment header records the sizes.
void write_snap(std::ostream& os, const EdgeList& el);
void write_snap_file(const std::filesystem::path& path, const EdgeList& el);

// --- Chunked writers shared by every homogenized format ----------------
//
// Records are formatted into a stack chunk and handed to the stream one
// chunk at a time. The chunk is smaller than fsx::OutStream's 64 KiB
// buffer, so every byte still takes the stream's buffered write path (and
// its ENOSPC / short-write handling).

inline constexpr std::size_t kWriteChunk = 16 * 1024;
/// Upper bound on one record: three numbers of at most 24 characters
/// each, two separators and a newline.
inline constexpr std::size_t kMaxRecord = 80;

/// Call `emit(p, i)` for i in [0, n); each call writes one record of at
/// most kMaxRecord bytes at `p` and returns the end of what it wrote.
template <typename Emit>
void write_chunked(std::ostream& os, std::size_t n, Emit emit) {
  char buf[kWriteChunk];
  char* p = buf;
  for (std::size_t i = 0; i < n; ++i) {
    if (static_cast<std::size_t>(buf + kWriteChunk - p) < kMaxRecord) {
      os.write(buf, p - buf);
      p = buf;
    }
    p = emit(p, i);
  }
  os.write(buf, p - buf);
}

/// Format one number at `p`: integers in decimal, weights as printf "%g"
/// (six significant digits, which is also what ostream `<<` prints).
template <typename T>
char* put_number(char* p, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return std::to_chars(p, p + 24, static_cast<double>(v),
                         std::chars_format::general, 6)
        .ptr;
  } else {
    return std::to_chars(p, p + 24, v).ptr;
  }
}

/// One line per edge: `<src+base><sep><dst+base>[<sep><w>]\n`. `base` is
/// 1 for 1-indexed formats; ids wrap modulo 2^32 as "%u" printed them.
void write_edge_lines(std::ostream& os, std::span<const Edge> edges,
                      char sep, bool weighted, vid_t base = 0);

/// One number per line: `value(i)` for i in [0, n).
template <typename Value>
void write_number_lines(std::ostream& os, std::size_t n, Value value) {
  write_chunked(os, n, [&value](char* p, std::size_t i) {
    p = put_number(p, value(i));
    *p++ = '\n';
    return p;
  });
}

}  // namespace epgs
