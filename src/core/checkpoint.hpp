// Mid-trial checkpoint/restore: iteration-granular snapshots.
//
// A comparative sweep can lose a unit 18 iterations into a 20-iteration
// PageRank to a watchdog timeout, an OOM kill, or a SIGKILL'd fork child;
// before this layer the unit restarted from iteration 0 or settled as DNF.
// Ammar & Özsu (VLDB'18) single out checkpoint-based recovery as what
// separates usable long-running evaluations from lost nights. This layer
// lets each system adapter register its serializable iteration state
// (rank/distance/parent arrays, frontier contents, work counters) behind a
// small Checkpointable interface; the CheckpointSession persists that
// state at iteration boundaries and restores it on retry or --resume so
// the kernel continues from iteration N — bit-identically, because the
// snapshot holds the exact arrays the remaining iterations consume.
//
// Trust model: a snapshot is a hint, never an authority. The on-disk frame
// is magic-headered and CRC-framed, written atomically (tmp + rename +
// fsync) through the fs_shim so EPGS_FS_FAULT plans inject faults into
// snapshot I/O like any other durable write. A corrupt, torn, or
// config-mismatched snapshot is invalidated with a warning and the kernel
// falls back to a full restart — never trusted, never fatal.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/error.hpp"

namespace epgs {

/// CRC-32 (ISO-HDLC polynomial, the zlib one) over `n` bytes. `seed`
/// chains incremental updates: crc32(b, crc32(a)) == crc32(a+b).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t n,
                                  std::uint32_t seed = 0);

// --- Tagged state serialization ---------------------------------------
//
// Every field carries a one-byte type tag (and vectors an element size),
// so a restore into code that expects a different field sequence fails
// loudly as a typed error instead of silently misreading bytes. The
// session treats any such error as "snapshot invalid: full restart".

/// Serializer for a Checkpointable's state. Appends tagged fields to an
/// in-memory buffer; the session frames and persists the buffer.
class StateWriter {
 public:
  void put_u64(std::uint64_t v) { put_scalar('u', v); }
  void put_i64(std::int64_t v) { put_scalar('i', v); }
  void put_f64(double v) { put_scalar('d', v); }

  void put_str(std::string_view s) {
    buf_.push_back('s');
    put_raw_u64(s.size());
    buf_.append(s.data(), s.size());
  }

  /// `count` trivially-copyable elements starting at `data`. Works for
  /// std::vector<T>::data(), FirstTouchVector storage, and staging copies
  /// of atomic arrays alike.
  template <typename T>
  void put_array(const T* data, std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.push_back('v');
    put_raw_u64(sizeof(T));
    put_raw_u64(count);
    if (count > 0) {
      buf_.append(reinterpret_cast<const char*>(data), count * sizeof(T));
    }
  }

  template <typename T>
  void put_vec(const std::vector<T>& v) {
    put_array(v.data(), v.size());
  }

  [[nodiscard]] const std::string& buffer() const { return buf_; }

 private:
  template <typename T>
  void put_scalar(char tag, T v) {
    buf_.push_back(tag);
    char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    buf_.append(raw, sizeof(T));
  }

  void put_raw_u64(std::uint64_t v) {
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    buf_.append(raw, sizeof v);
  }

  std::string buf_;
};

/// Deserializer over a snapshot payload. Throws EpgsError on any tag,
/// element-size, or length mismatch — the session catches it and falls
/// back to a full restart.
class StateReader {
 public:
  explicit StateReader(std::string_view buf) : buf_(buf) {}

  [[nodiscard]] std::uint64_t get_u64() {
    return get_scalar<std::uint64_t>('u');
  }
  [[nodiscard]] std::int64_t get_i64() { return get_scalar<std::int64_t>('i'); }
  [[nodiscard]] double get_f64() { return get_scalar<double>('d'); }

  [[nodiscard]] std::string get_str() {
    expect_tag('s');
    const std::uint64_t len = get_raw_u64();
    return std::string(take(len));
  }

  /// Restore an array written by put_array/put_vec. Throws when the
  /// recorded element size differs from sizeof(T).
  template <typename T>
  [[nodiscard]] std::vector<T> get_vec() {
    static_assert(std::is_trivially_copyable_v<T>);
    expect_tag('v');
    const std::uint64_t elem = get_raw_u64();
    EPGS_CHECK(elem == sizeof(T),
               "snapshot field element size mismatch: recorded " +
                   std::to_string(elem) + ", expected " +
                   std::to_string(sizeof(T)));
    const std::uint64_t count = get_raw_u64();
    const std::string_view raw = take(count * sizeof(T));
    std::vector<T> out(count);
    if (count > 0) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  [[nodiscard]] bool at_end() const { return pos_ == buf_.size(); }

 private:
  template <typename T>
  [[nodiscard]] T get_scalar(char tag) {
    expect_tag(tag);
    const std::string_view raw = take(sizeof(T));
    T v;
    std::memcpy(&v, raw.data(), sizeof(T));
    return v;
  }

  void expect_tag(char tag) {
    const std::string_view got = take(1);
    EPGS_CHECK(got[0] == tag,
               std::string("snapshot field tag mismatch: expected '") + tag +
                   "', found '" + got[0] + "'");
  }

  [[nodiscard]] std::uint64_t get_raw_u64() {
    const std::string_view raw = take(sizeof(std::uint64_t));
    std::uint64_t v;
    std::memcpy(&v, raw.data(), sizeof v);
    return v;
  }

  [[nodiscard]] std::string_view take(std::uint64_t n) {
    EPGS_CHECK(n <= buf_.size() - pos_, "snapshot payload truncated");
    const std::string_view out = buf_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  std::string_view buf_;
  std::size_t pos_ = 0;
};

/// What a kernel registers at its snapshot points: how to serialize the
/// iteration state and how to load it back. restore_state() may throw
/// (EpgsError preferred) when the recorded state does not fit the live
/// structures; the session converts that into a full restart.
class Checkpointable {
 public:
  virtual ~Checkpointable() = default;
  virtual void save_state(StateWriter& w) const = 0;
  virtual void restore_state(StateReader& r) = 0;
};

/// Lambda adapter so kernels can register local state without a named
/// class per algorithm.
class FnCheckpointable final : public Checkpointable {
 public:
  FnCheckpointable(std::function<void(StateWriter&)> save,
                   std::function<void(StateReader&)> restore)
      : save_(std::move(save)), restore_(std::move(restore)) {}

  void save_state(StateWriter& w) const override { save_(w); }
  void restore_state(StateReader& r) override { restore_(r); }

 private:
  std::function<void(StateWriter&)> save_;
  std::function<void(StateReader&)> restore_;
};

// --- Shared kernel-state shapes ---------------------------------------
//
// Five adapters' PageRank kernels snapshot the same state shape — the
// rank vector, the completed-iteration counter, and the accumulated edge
// work — and previously each spelled out the same StateWriter/StateReader
// lambda pair by hand. These helpers build that Checkpointable once.
// `extra_save`/`extra_restore` append kernel-specific trailing fields
// (e.g. PowerGraph's engine counters) after the common prefix.

/// Checkpointable over a contiguous scalar array (std::vector data(),
/// FirstTouchVector storage, ...) plus an iteration counter and an edge
/// work counter. The restore validates the element count, so a snapshot
/// from a different graph is rejected as invalid instead of misread.
template <typename T, typename IterT>
[[nodiscard]] inline FnCheckpointable ckpt_scalar_vector(
    T* data, std::size_t count, IterT* iterations, std::uint64_t* edge_work,
    std::string what = "kernel",
    std::function<void(StateWriter&)> extra_save = {},
    std::function<void(StateReader&)> extra_restore = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  return FnCheckpointable(
      [=, extra = std::move(extra_save)](StateWriter& w) {
        w.put_array(data, count);
        w.put_u64(static_cast<std::uint64_t>(*iterations));
        w.put_u64(*edge_work);
        if (extra) extra(w);
      },
      [=, extra = std::move(extra_restore)](StateReader& r) {
        const auto v = r.get_vec<T>();
        EPGS_CHECK(v.size() == count,
                   what + " snapshot vertex count mismatch");
        for (std::size_t i = 0; i < count; ++i) data[i] = v[i];
        *iterations = static_cast<IterT>(r.get_u64());
        *edge_work = r.get_u64();
        if (extra) extra(r);
      });
}

/// Accessor flavour of ckpt_scalar_vector for non-contiguous per-vertex
/// state (GraphBIG's AoS vertex objects, PowerGraph's VData structs):
/// `get(i)` reads and `set(i, value)` writes vertex i's scalar. The save
/// stages through a temporary vector so the frame layout is identical to
/// the contiguous flavour.
template <typename T, typename IterT, typename GetFn, typename SetFn>
[[nodiscard]] inline FnCheckpointable ckpt_scalar_field(
    std::size_t count, GetFn get, SetFn set, IterT* iterations,
    std::uint64_t* edge_work, std::string what = "kernel",
    std::function<void(StateWriter&)> extra_save = {},
    std::function<void(StateReader&)> extra_restore = {}) {
  static_assert(std::is_trivially_copyable_v<T>);
  return FnCheckpointable(
      [=, extra = std::move(extra_save)](StateWriter& w) {
        std::vector<T> staged(count);
        for (std::size_t i = 0; i < count; ++i) staged[i] = get(i);
        w.put_vec(staged);
        w.put_u64(static_cast<std::uint64_t>(*iterations));
        w.put_u64(*edge_work);
        if (extra) extra(w);
      },
      [=, extra = std::move(extra_restore)](StateReader& r) {
        const auto v = r.get_vec<T>();
        EPGS_CHECK(v.size() == count,
                   what + " snapshot vertex count mismatch");
        for (std::size_t i = 0; i < count; ++i) set(i, v[i]);
        *iterations = static_cast<IterT>(r.get_u64());
        *edge_work = r.get_u64();
        if (extra) extra(r);
      });
}

/// Test hook fired between a snapshot's durable tmp write and the rename
/// that publishes it — the exact window where a process death leaves a
/// stale-or-absent snapshot plus an orphaned .tmp. The fault-injection
/// layer installs a handler here to rehearse torn publishes (chaos
/// publish-kill events, tests/test_checkpoint.cpp); production never sets
/// it and the call site reduces to one relaxed atomic load. The argument
/// is the final snapshot path.
using SnapshotPublishHook = void (*)(const char* path);
void set_snapshot_publish_hook(SnapshotPublishHook hook) noexcept;

/// One session's identity and cadence. A session snapshots exactly one
/// supervised unit; the fingerprint ties the snapshot to the experiment
/// configuration the same way the journal's config line does.
struct CheckpointConfig {
  std::string dir;          ///< snapshot directory; empty disables
  std::string unit_key;     ///< e.g. "GAP|pagerank|3"
  std::string fingerprint;  ///< config_fingerprint of the experiment
  /// Save every N completed iterations; 0 = never on iteration count
  /// (cancellation and interrupts still snapshot).
  int every_iterations = 1;
  /// Additionally save when this much wall time passed since the last
  /// save; 0 disables the time cadence.
  double every_seconds = 0.0;
};

/// The per-unit snapshot driver. The runner owns one per supervised trial
/// and threads it to the System; the kernel calls begin()/tick()/end()
/// through the System base helpers. All file I/O goes through the fs_shim.
class CheckpointSession {
 public:
  explicit CheckpointSession(CheckpointConfig cfg);

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Register the kernel's state. If a valid snapshot for this unit,
  /// stage, and fingerprint exists it is restored into `state` and the
  /// number of completed iterations is returned; otherwise 0. An invalid
  /// snapshot (bad magic, CRC, truncation, wrong fingerprint/key/stage,
  /// restore_state throw) is deleted, recorded in warning(), and treated
  /// as absent.
  std::uint64_t begin(std::string_view stage, Checkpointable& state);

  /// Iteration-boundary snapshot point: `completed` iterations are done
  /// and the registered state is consistent. Saves when the cadence says
  /// so; returns true when a snapshot was durably written.
  bool tick(std::uint64_t completed);

  /// Kernel ran to completion: deregister and delete the snapshot so it
  /// cannot leak into a later run of the same unit key.
  void end();

  /// Best-effort immediate save at the current iteration (used when a
  /// cancellation or interrupt is about to unwind the kernel). Skips the
  /// write when the current iteration is already on disk. Never throws.
  void save_now() noexcept;

  /// Drop the state registration without touching the snapshot (the
  /// kernel's stack frame is gone; the snapshot stays for the retry).
  void detach() { state_ = nullptr; }

  /// True when a snapshot file for this unit exists on disk (also
  /// observes snapshots written by a fork child sharing the directory).
  [[nodiscard]] bool snapshot_exists() const;

  /// Iteration restored by the last begin(); -1 when it started fresh.
  [[nodiscard]] std::int64_t resumed_from() const { return resumed_from_; }

  /// Completed-iteration count of the most recent durable save.
  [[nodiscard]] std::uint64_t last_saved_iteration() const {
    return last_saved_iter_;
  }

  /// Snapshots written by this session so far.
  [[nodiscard]] int saves() const { return saves_; }

  /// Why a snapshot was invalidated or a save skipped (empty = healthy).
  [[nodiscard]] const std::string& warning() const { return warning_; }

  /// Delete the snapshot file, if any.
  void remove_snapshot() noexcept;

  [[nodiscard]] const std::filesystem::path& snapshot_path() const {
    return path_;
  }

  /// Where a unit's snapshot lives: sanitized key + short hash, so keys
  /// with '|' and '/' map to safe unique filenames.
  [[nodiscard]] static std::filesystem::path path_for(
      const std::filesystem::path& dir, std::string_view unit_key);

  /// Completed-iteration count recorded in the snapshot at `path`, or -1
  /// when the file is absent or its meta section unreadable. Reads the
  /// file directly, so it observes snapshots written by a fork child that
  /// this process's in-memory session never saw.
  [[nodiscard]] static std::int64_t peek_iteration(
      const std::filesystem::path& path) noexcept;

 private:
  bool try_restore(std::string_view stage, Checkpointable& state);
  bool write_snapshot();

  CheckpointConfig cfg_;
  std::filesystem::path path_;
  bool enabled_ = false;
  Checkpointable* state_ = nullptr;
  std::string stage_;
  std::uint64_t current_iter_ = 0;
  std::uint64_t last_saved_iter_ = 0;
  bool have_saved_ = false;
  bool save_disabled_ = false;  ///< a save failed; stop paying for more
  std::int64_t resumed_from_ = -1;
  int saves_ = 0;
  std::string warning_;
  std::chrono::steady_clock::time_point last_save_time_;
};

}  // namespace epgs
