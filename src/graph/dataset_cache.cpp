#include "graph/dataset_cache.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <system_error>
#include <type_traits>
#include <vector>

#include <unistd.h>

#include "core/error.hpp"
#include "core/fs_shim.hpp"
#include "core/mapped_file.hpp"
#include "core/text_scan.hpp"
#include "graph/cache_lock.hpp"

namespace epgs {
namespace {

constexpr std::uint64_t kSnapshotMagic = 0x3150414E53475045ULL;  // "EPGSNAP1"
constexpr std::uint64_t kSnapshotTrailer = 0x31444E4553475045ULL;  // "EPGSEND1"
constexpr std::uint64_t kFlagWeighted = 1ULL << 0;
constexpr std::uint64_t kFlagDirected = 1ULL << 1;
constexpr std::string_view kMetaVersion = "epgs-dataset-cache-v1";

static_assert(std::is_trivially_copyable_v<Edge> && sizeof(Edge) == 12,
              "packed snapshot stores raw Edge records");

struct SnapshotHeader {
  std::uint64_t magic;
  std::uint64_t nv;
  std::uint64_t ne;
  std::uint64_t flags;
};
static_assert(sizeof(SnapshotHeader) == 32);

/// Parsed meta file: fingerprint + shape + manifest of relative paths.
struct Meta {
  std::string fingerprint;
  std::string name;
  std::uint64_t nv = 0;
  std::uint64_t ne = 0;
  bool weighted = false;
  bool directed = true;
  std::vector<std::pair<GraphFormat, std::string>> files;
  bool complete = false;  ///< saw the trailing "end" marker
};

std::optional<GraphFormat> format_from_name(std::string_view n) {
  for (const GraphFormat f :
       {GraphFormat::kSnapText, GraphFormat::kGraph500Bin,
        GraphFormat::kGapSg, GraphFormat::kGraphMatMtx,
        GraphFormat::kGraphBigCsv, GraphFormat::kPowerGraphTsv,
        GraphFormat::kLigraAdj}) {
    if (format_name(f) == n) return f;
  }
  return std::nullopt;
}

std::optional<Meta> parse_meta(const std::filesystem::path& p) {
  std::error_code ec;
  if (!std::filesystem::is_regular_file(p, ec)) return std::nullopt;
  Meta m;
  try {
    const MappedFile file(p);
    text::LineScanner lines(file.view());
    std::string_view line;
    if (!lines.next(line) || line != kMetaVersion) return std::nullopt;
    while (lines.next(line)) {
      std::string_view rest = line;
      const std::string_view key = text::next_token(rest);
      if (!rest.empty() && rest.front() == ' ') rest.remove_prefix(1);
      if (key == "fingerprint") {
        m.fingerprint = std::string(rest);
      } else if (key == "name") {
        m.name = std::string(rest);
      } else if (key == "nv") {
        m.nv = text::parse<std::uint64_t>(rest, "cache meta", "nv",
                                          lines.line_no());
      } else if (key == "ne") {
        m.ne = text::parse<std::uint64_t>(rest, "cache meta", "ne",
                                          lines.line_no());
      } else if (key == "weighted") {
        m.weighted = rest == "1";
      } else if (key == "directed") {
        m.directed = rest == "1";
      } else if (key == "file") {
        std::string_view fmt_rest = rest;
        const std::string_view fmt = text::next_token(fmt_rest);
        if (!fmt_rest.empty() && fmt_rest.front() == ' ') {
          fmt_rest.remove_prefix(1);
        }
        const auto f = format_from_name(fmt);
        if (!f || fmt_rest.empty()) return std::nullopt;
        m.files.emplace_back(*f, std::string(fmt_rest));
      } else if (key == "end") {
        m.complete = true;
      }
    }
  } catch (const EpgsError&) {
    return std::nullopt;  // unreadable or malformed meta == corrupt entry
  }
  if (!m.complete || m.name.empty() || m.fingerprint.empty()) {
    return std::nullopt;
  }
  if (m.files.size() != 7) return std::nullopt;
  return m;
}

void write_meta(const std::filesystem::path& p, std::string_view fingerprint,
                const std::string& name, const EdgeList& el,
                const HomogenizedDataset& ds) {
  fsx::OutStream out(p);
  out << kMetaVersion << '\n';
  out << "fingerprint " << fingerprint << '\n';
  out << "name " << name << '\n';
  out << "nv " << el.num_vertices << '\n';
  out << "ne " << el.num_edges() << '\n';
  out << "weighted " << (el.weighted ? 1 : 0) << '\n';
  out << "directed " << (el.directed ? 1 : 0) << '\n';
  for (const auto& [fmt, path] : ds.files) {
    out << "file " << format_name(fmt) << ' '
        << path.filename().string() << '\n';
  }
  out << "end\n";
  out.sync_now();
  out.close();
}

/// O(1) integrity check for a snapshot: header fields, exact file size
/// (catches truncation and torn writes), and trailer magic — without
/// touching the edge payload.
bool snapshot_valid(const std::filesystem::path& p, const Meta& m) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(p, ec);
  if (ec) return false;
  const std::uint64_t expect =
      sizeof(SnapshotHeader) + m.ne * sizeof(Edge) + sizeof(std::uint64_t);
  if (size != expect) return false;
  std::ifstream in(p, std::ios::binary);
  SnapshotHeader h{};
  in.read(reinterpret_cast<char*>(&h), sizeof h);
  if (!in.good() || h.magic != kSnapshotMagic || h.nv != m.nv ||
      h.ne != m.ne) {
    return false;
  }
  if (((h.flags & kFlagWeighted) != 0) != m.weighted) return false;
  if (((h.flags & kFlagDirected) != 0) != m.directed) return false;
  std::uint64_t trailer = 0;
  in.seekg(-static_cast<std::streamoff>(sizeof trailer), std::ios::end);
  in.read(reinterpret_cast<char*>(&trailer), sizeof trailer);
  return in.good() && trailer == kSnapshotTrailer;
}

/// The snapshot's bytes; allocates nothing, so it can run as one of
/// homogenize()'s writer tasks.
void put_packed_snapshot(std::ostream& out, const EdgeList& el) {
  SnapshotHeader h{kSnapshotMagic, el.num_vertices, el.num_edges(),
                   (el.weighted ? kFlagWeighted : 0) |
                       (el.directed ? kFlagDirected : 0)};
  out.write(reinterpret_cast<const char*>(&h), sizeof h);
  out.write(reinterpret_cast<const char*>(el.edges.data()),
            static_cast<std::streamsize>(el.edges.size() * sizeof(Edge)));
  out.write(reinterpret_cast<const char*>(&kSnapshotTrailer),
            sizeof kSnapshotTrailer);
}

}  // namespace

std::string content_hash_hex(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

void write_packed_snapshot(const std::filesystem::path& p,
                           const EdgeList& el) {
  fsx::OutStream out(p);
  put_packed_snapshot(out, el);
  out.sync_now();
  out.close();
}

EdgeList read_packed_snapshot(const std::filesystem::path& p) {
  const MappedFile file(p);
  EPGS_CHECK(file.size() >= sizeof(SnapshotHeader) + sizeof(std::uint64_t),
             "snapshot too small: " + p.string());
  SnapshotHeader h{};
  std::memcpy(&h, file.data(), sizeof h);
  EPGS_CHECK(h.magic == kSnapshotMagic, "bad snapshot magic: " + p.string());
  const std::uint64_t expect =
      sizeof(SnapshotHeader) + h.ne * sizeof(Edge) + sizeof(std::uint64_t);
  EPGS_CHECK(file.size() == expect,
             "truncated snapshot (torn write?): " + p.string());
  std::uint64_t trailer = 0;
  std::memcpy(&trailer, file.data() + file.size() - sizeof trailer,
              sizeof trailer);
  EPGS_CHECK(trailer == kSnapshotTrailer,
             "bad snapshot trailer (torn write?): " + p.string());

  EdgeList el;
  el.num_vertices = static_cast<vid_t>(h.nv);
  el.weighted = (h.flags & kFlagWeighted) != 0;
  el.directed = (h.flags & kFlagDirected) != 0;
  el.edges.resize(h.ne);
  std::memcpy(el.edges.data(), file.data() + sizeof h,
              h.ne * sizeof(Edge));
  return el;
}

DatasetCache::DatasetCache(std::filesystem::path root, CacheOptions opts)
    : root_(std::move(root)), opts_(opts) {
  std::filesystem::create_directories(root_);
}

std::filesystem::path DatasetCache::lock_path(
    std::string_view fingerprint) const {
  return root_ / (content_hash_hex(fingerprint) + ".lock");
}

std::optional<CacheEntry> DatasetCache::lookup(std::string_view fingerprint) {
  const auto dir = root_ / content_hash_hex(fingerprint);
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    ++stats_.misses;
    return std::nullopt;
  }

  const auto invalidate = [&]() -> std::optional<CacheEntry> {
    ++stats_.invalidations;
    ++stats_.misses;
    std::filesystem::remove_all(dir, ec);
    return std::nullopt;
  };

  const auto meta = parse_meta(dir / "meta");
  if (!meta) return invalidate();
  // Full-string comparison guards against FNV collisions and against an
  // entry written by an older fingerprint scheme.
  if (meta->fingerprint != fingerprint) return invalidate();

  CacheEntry entry;
  entry.dir = dir;
  entry.name = meta->name;
  entry.snapshot = dir / "edges.bin";
  entry.num_vertices = meta->nv;
  entry.num_edges = meta->ne;
  entry.weighted = meta->weighted;
  entry.directed = meta->directed;
  if (!snapshot_valid(entry.snapshot, *meta)) return invalidate();

  entry.files.name = meta->name;
  entry.files.dir = dir;
  for (const auto& [fmt, rel] : meta->files) {
    const auto path = dir / rel;
    if (!std::filesystem::exists(path, ec)) return invalidate();
    entry.files.files[fmt] = path;
  }

  ++stats_.hits;
  return entry;
}

CacheEntry DatasetCache::materialize(std::string_view fingerprint,
                                     const std::string& name,
                                     const EdgeProvider& edges) {
  const auto hash = content_hash_hex(fingerprint);
  const auto final_dir = root_ / hash;
  const auto tmp_dir =
      root_ / (".tmp-" + hash + "-" + std::to_string(::getpid()));

  // Builder election: one process homogenizes; everyone else waits here
  // and then finds the published entry. A crashed builder's flock is
  // released by the kernel, so the next waiter simply takes over.
  CacheLock lock;
  if (!lock.acquire(lock_path(fingerprint), opts_.lock_timeout_seconds)) {
    const auto lp = lock_path(fingerprint);
    const pid_t holder = CacheLock::holder_pid(lp);
    throw ResourceExhaustedError(
        "timed out after " + std::to_string(opts_.lock_timeout_seconds) +
        "s waiting for cache builder lock " + lp.string() + " (holder pid " +
        std::to_string(holder) + ", " +
        (CacheLock::holder_alive(lp) ? "alive — still building; raise "
                                       "--lock-timeout"
                                     : "dead or unknown") +
        ")");
  }
  if (lock.contended()) {
    ++stats_.lock_waits;
    // Double-checked lookup: the process we waited on probably published
    // this very entry. The reload is coordination, not a user-visible hit.
    Stats saved = stats_;
    auto published = lookup(fingerprint);
    stats_ = saved;
    if (published) {
      ++stats_.builds_elided;
      return *published;
    }
  }

  // Disk preflight: refuse to start a publish that would fill the volume.
  if (opts_.min_free_disk_bytes > 0) {
    const std::uint64_t free = fsx::free_disk_bytes(root_);
    if (free < opts_.min_free_disk_bytes) {
      throw ResourceExhaustedError(
          "cache preflight: " + std::to_string(free) +
          " bytes free under " + root_.string() + ", floor is " +
          std::to_string(opts_.min_free_disk_bytes) +
          " (--min-free-disk)");
    }
  }

  std::error_code ec;
  std::filesystem::remove_all(tmp_dir, ec);  // leftover from a crashed run
  std::filesystem::create_directories(tmp_dir);

  // A failed build (ENOSPC mid-write, a generator exception) must not
  // leak a staging dir for the next run to trip over.
  struct TmpGuard {
    const std::filesystem::path& dir;
    bool armed = true;
    ~TmpGuard() {
      if (armed) {
        std::error_code ignore;
        std::filesystem::remove_all(dir, ignore);
      }
    }
  } tmp_guard{tmp_dir};

  const EdgeList& el = edges();
  // homogenize() writes the snapshot beside the formats and fsyncs every
  // file it stages; the meta syncs on close. Then the rename is persisted
  // by fsyncing the parent directory.
  const StagedFile snapshot{tmp_dir / "edges.bin", put_packed_snapshot};
  const HomogenizedDataset staged = homogenize(el, name, tmp_dir, &snapshot);
  write_meta(tmp_dir / "meta", fingerprint, name, el, staged);
  ++stats_.materializations;

  std::filesystem::remove_all(final_dir, ec);  // stale entry being replaced
  fsx::rename(tmp_dir, final_dir);
  tmp_guard.armed = false;
  fsx::fsync_dir(root_);

  // Reload through the validating path so the returned entry's paths point
  // at the published directory.
  Stats saved = stats_;
  auto entry = lookup(fingerprint);
  stats_ = saved;  // the internal reload is not a user-visible hit
  EPGS_CHECK(entry.has_value(),
             "dataset cache entry vanished after materialize: " + hash);
  return *entry;
}

CacheEntry DatasetCache::materialize(std::string_view fingerprint,
                                     const std::string& name,
                                     const EdgeList& el) {
  return materialize(fingerprint, name,
                     [&el]() -> const EdgeList& { return el; });
}

}  // namespace epgs
