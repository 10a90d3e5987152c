#include "core/checkpoint.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <utility>

#include "core/fs_shim.hpp"

namespace epgs {
namespace {

// Snapshot frame:
//
//   "epgs-ckpt-v1\n"                          (13-byte magic)
//   u32 meta_len   | meta bytes   | u32 crc32(meta)
//   u64 payload_len| payload bytes| u32 crc32(payload)
//
// meta is a StateWriter blob: unit key, stage, config fingerprint,
// completed-iteration count. payload is the kernel's StateFields blob.
constexpr std::string_view kMagic = "epgs-ckpt-v1\n";

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

template <typename T>
void append_raw(std::string& out, T v) {
  char raw[sizeof(T)];
  std::memcpy(raw, &v, sizeof(T));
  out.append(raw, sizeof(T));
}

template <typename T>
T read_raw(std::string_view buf, std::size_t& pos) {
  EPGS_CHECK(sizeof(T) <= buf.size() - pos, "snapshot frame truncated");
  T v;
  std::memcpy(&v, buf.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

/// Read a whole file through the fs_shim (so EPGS_FS_FAULT read plans
/// fire on snapshot loads). Throws IoError/ResourceExhaustedError.
std::string slurp(const std::filesystem::path& p) {
  const int fd = fsx::open_read(p);
  std::string out;
  try {
    char buf[1 << 16];
    for (;;) {
      const std::size_t n = fsx::read_some(fd, buf, sizeof buf, p);
      if (n == 0) break;
      out.append(buf, n);
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return out;
}

struct SnapshotMeta {
  std::string unit_key;
  std::string stage;
  std::string fingerprint;
  std::uint64_t iteration = 0;
};

std::atomic<SnapshotPublishHook> g_publish_hook{nullptr};

}  // namespace

void set_snapshot_publish_hook(SnapshotPublishHook hook) noexcept {
  g_publish_hook.store(hook, std::memory_order_release);
}

void StateFields::commit() {
  EPGS_CHECK(reader_->at_end(),
             "snapshot payload holds fields past the declared state");
  for (auto& set : setters_) set();
  for (auto& hook : hooks_) hook();
}

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

std::filesystem::path CheckpointSession::path_for(
    const std::filesystem::path& dir, std::string_view unit_key) {
  std::string name;
  name.reserve(unit_key.size() + 16);
  for (const char c : unit_key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    name.push_back(safe ? c : '_');
  }
  // FNV-1a over the raw key disambiguates keys that sanitize identically.
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : unit_key) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return dir / (name + "-" + std::string(hex, 8) + ".ckpt");
}

CheckpointSession::CheckpointSession(CheckpointConfig cfg)
    : cfg_(std::move(cfg)) {
  if (cfg_.dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(cfg_.dir, ec);
  if (ec) {
    warning_ = "checkpoint directory unusable (" + ec.message() +
               "); checkpointing disabled for " + cfg_.unit_key;
    return;
  }
  path_ = path_for(cfg_.dir, cfg_.unit_key);
  enabled_ = true;
}

std::uint64_t CheckpointSession::begin(std::string_view stage,
                                       StateDecl state) {
  resumed_from_ = -1;
  current_iter_ = 0;
  last_saved_iter_ = 0;
  have_saved_ = false;
  stage_ = std::string(stage);
  state_ = std::move(state);
  if (!enabled_) return 0;
  last_save_time_ = std::chrono::steady_clock::now();
  if (!snapshot_exists()) return 0;
  if (!try_restore(stage)) {
    // Invalid snapshot (warning_ explains why): delete it and restart.
    remove_snapshot();
    return 0;
  }
  resumed_from_ = static_cast<std::int64_t>(current_iter_);
  last_saved_iter_ = current_iter_;
  have_saved_ = true;
  return current_iter_;
}

bool CheckpointSession::try_restore(std::string_view stage) {
  std::string frame;
  try {
    frame = slurp(path_);
  } catch (const std::exception& e) {
    warning_ = "checkpoint snapshot unreadable (" + std::string(e.what()) +
               "); falling back to full restart";
    return false;
  }
  try {
    EPGS_CHECK(frame.size() >= kMagic.size() &&
                   std::string_view(frame).substr(0, kMagic.size()) == kMagic,
               "bad magic header");
    std::size_t pos = kMagic.size();
    const auto meta_len = read_raw<std::uint32_t>(frame, pos);
    EPGS_CHECK(meta_len <= frame.size() - pos, "torn meta section");
    const std::string_view meta(frame.data() + pos, meta_len);
    pos += meta_len;
    const auto meta_crc = read_raw<std::uint32_t>(frame, pos);
    EPGS_CHECK(crc32(meta.data(), meta.size()) == meta_crc,
               "meta CRC mismatch");
    const auto payload_len = read_raw<std::uint64_t>(frame, pos);
    EPGS_CHECK(payload_len <= frame.size() - pos, "torn payload section");
    const std::string_view payload(frame.data() + pos,
                                   static_cast<std::size_t>(payload_len));
    pos += static_cast<std::size_t>(payload_len);
    const auto payload_crc = read_raw<std::uint32_t>(frame, pos);
    EPGS_CHECK(crc32(payload.data(), payload.size()) == payload_crc,
               "payload CRC mismatch");

    StateReader mr(meta);
    SnapshotMeta m;
    m.unit_key = mr.get_str();
    m.stage = mr.get_str();
    m.fingerprint = mr.get_str();
    m.iteration = mr.get_u64();
    EPGS_CHECK(m.unit_key == cfg_.unit_key,
               "snapshot belongs to unit '" + m.unit_key + "', not '" +
                   cfg_.unit_key + "'");
    EPGS_CHECK(m.stage == stage, "snapshot stage '" + m.stage +
                                     "' does not match '" +
                                     std::string(stage) + "'");
    EPGS_CHECK(m.fingerprint == cfg_.fingerprint,
               "snapshot was written by a different experiment "
               "configuration");

    StateReader pr(payload);
    StateFields fields(pr);
    state_(fields);
    fields.commit();
    current_iter_ = m.iteration;
    return true;
  } catch (const std::exception& e) {
    warning_ = "checkpoint snapshot invalidated (" + std::string(e.what()) +
               "); falling back to full restart";
    return false;
  }
}

bool CheckpointSession::tick(std::uint64_t completed) {
  if (state_ == nullptr || !enabled_ || save_disabled_) {
    current_iter_ = completed;
    return false;
  }
  current_iter_ = completed;
  bool due = false;
  if (cfg_.every_iterations > 0 && completed > last_saved_iter_ &&
      completed - last_saved_iter_ >=
          static_cast<std::uint64_t>(cfg_.every_iterations)) {
    due = true;
  }
  if (!due && cfg_.every_seconds > 0 && completed > last_saved_iter_) {
    const std::chrono::duration<double> since =
        std::chrono::steady_clock::now() - last_save_time_;
    due = since.count() >= cfg_.every_seconds;
  }
  if (!due) return false;
  return write_snapshot();
}

bool CheckpointSession::write_snapshot() {
  const std::filesystem::path tmp = path_.string() + ".tmp";
  try {
    StateWriter meta;
    meta.put_str(cfg_.unit_key);
    meta.put_str(stage_);
    meta.put_str(cfg_.fingerprint);
    meta.put_u64(current_iter_);
    StateWriter payload;
    StateFields fields(payload);
    state_(fields);

    std::string frame;
    frame.reserve(kMagic.size() + meta.buffer().size() +
                  payload.buffer().size() + 32);
    frame.append(kMagic);
    append_raw<std::uint32_t>(
        frame, static_cast<std::uint32_t>(meta.buffer().size()));
    frame.append(meta.buffer());
    append_raw<std::uint32_t>(
        frame, crc32(meta.buffer().data(), meta.buffer().size()));
    append_raw<std::uint64_t>(frame, payload.buffer().size());
    frame.append(payload.buffer());
    append_raw<std::uint32_t>(
        frame, crc32(payload.buffer().data(), payload.buffer().size()));

    // tmp + rename + fsync, all through the shim: the snapshot at `path_`
    // is either the complete previous frame or the complete new one, and
    // the rename itself survives power loss.
    {
      fsx::OutStream out(tmp, fsx::OutStream::Mode::kTruncate);
      out.write(frame.data(), static_cast<std::streamsize>(frame.size()));
      out.sync_now();
      out.close();
    }
    // The torn-publish window: tmp is durable, the rename has not
    // happened. An installed hook may kill the process right here.
    if (SnapshotPublishHook hook =
            g_publish_hook.load(std::memory_order_acquire)) {
      hook(path_.c_str());
    }
    fsx::rename(tmp, path_);
    fsx::fsync_dir(path_.parent_path());
  } catch (const std::exception& e) {
    // A sick or full disk must not fail the trial: drop the partial tmp,
    // stop snapshotting and let the unit run uncheckpointed.
    std::error_code ec;
    std::filesystem::remove(tmp, ec);
    warning_ = "checkpoint save failed (" + std::string(e.what()) +
               "); further snapshots disabled for this unit";
    save_disabled_ = true;
    return false;
  }
  last_saved_iter_ = current_iter_;
  last_save_time_ = std::chrono::steady_clock::now();
  have_saved_ = true;
  ++saves_;
  return true;
}

void CheckpointSession::save_now() noexcept {
  if (state_ == nullptr || !enabled_ || save_disabled_) return;
  if (have_saved_ && last_saved_iter_ == current_iter_) return;
  try {
    (void)write_snapshot();
  } catch (...) {
    // write_snapshot already degrades internally; never unwind from here.
  }
}

void CheckpointSession::end() {
  state_ = nullptr;
  remove_snapshot();
}

bool CheckpointSession::snapshot_exists() const {
  if (!enabled_) return false;
  std::error_code ec;
  return std::filesystem::exists(path_, ec);
}

void CheckpointSession::remove_snapshot() noexcept {
  if (!enabled_) return;
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

std::int64_t CheckpointSession::peek_iteration(
    const std::filesystem::path& path) noexcept {
  try {
    const std::string frame = slurp(path);
    EPGS_CHECK(frame.size() >= kMagic.size() &&
                   std::string_view(frame).substr(0, kMagic.size()) == kMagic,
               "bad magic header");
    std::size_t pos = kMagic.size();
    const auto meta_len = read_raw<std::uint32_t>(frame, pos);
    EPGS_CHECK(meta_len <= frame.size() - pos, "torn meta section");
    const std::string_view meta(frame.data() + pos, meta_len);
    pos += meta_len;
    const auto meta_crc = read_raw<std::uint32_t>(frame, pos);
    EPGS_CHECK(crc32(meta.data(), meta.size()) == meta_crc,
               "meta CRC mismatch");
    StateReader mr(meta);
    (void)mr.get_str();  // unit key
    (void)mr.get_str();  // stage
    (void)mr.get_str();  // fingerprint
    return static_cast<std::int64_t>(mr.get_u64());
  } catch (...) {
    return -1;
  }
}

}  // namespace epgs
