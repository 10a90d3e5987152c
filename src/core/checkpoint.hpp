// Mid-trial checkpoint/restore: iteration-granular snapshots.
//
// A comparative sweep can lose a unit 18 iterations into a 20-iteration
// PageRank to a watchdog timeout, an OOM kill, or a SIGKILL'd fork child;
// before this layer the unit restarted from iteration 0 or settled as DNF.
// Ammar & Özsu (VLDB'18) single out checkpoint-based recovery as what
// separates usable long-running evaluations from lost nights. This layer
// lets each system adapter declare its serializable iteration state
// (rank/distance/parent arrays, frontier contents, work counters) as one
// StateFields list; the CheckpointSession persists that
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

#include <atomic>
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

/// Serializer for a kernel's snapshot state. Appends tagged fields to an
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

  /// `count` trivially-copyable elements, element i produced by
  /// `get(i)` — a vector's data, a staging of atomics, or one member of
  /// each array-of-structs object alike — written straight into the
  /// buffer.
  template <typename T, typename Get>
  void put_each(std::size_t count, Get get) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.push_back('v');
    put_raw_u64(sizeof(T));
    put_raw_u64(count);
    const std::size_t at = buf_.size();
    buf_.resize(at + count * sizeof(T));
    for (std::size_t i = 0; i < count; ++i) {
      const T x = get(i);
      std::memcpy(buf_.data() + at + i * sizeof(T), &x, sizeof(T));
    }
  }

  template <typename T>
  void put_vec(const std::vector<T>& v) {
    put_each<T>(v.size(), [&v](std::size_t i) { return v[i]; });
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

  /// The element bytes of an array written by put_each/put_vec, viewed
  /// in place (valid while the reader's buffer is). Throws when the
  /// recorded element size differs from sizeof(T).
  template <typename T>
  [[nodiscard]] std::string_view get_array_bytes() {
    static_assert(std::is_trivially_copyable_v<T>);
    expect_tag('v');
    const std::uint64_t elem = get_raw_u64();
    EPGS_CHECK(elem == sizeof(T),
               "snapshot field element size mismatch: recorded " +
                   std::to_string(elem) + ", expected " +
                   std::to_string(sizeof(T)));
    const std::uint64_t count = get_raw_u64();
    EPGS_CHECK(count <= (buf_.size() - pos_) / sizeof(T),
               "snapshot payload truncated");
    return take(count * sizeof(T));
  }

  template <typename T>
  [[nodiscard]] std::vector<T> get_vec() {
    const std::string_view raw = get_array_bytes<T>();
    std::vector<T> out(raw.size() / sizeof(T));
    if (!out.empty()) std::memcpy(out.data(), raw.data(), raw.size());
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

/// A kernel's snapshot state, declared once. The kernel hands the session
/// one function that names every field in frame order:
///
///   [&](StateFields& f) {
///     f.per_vertex(rank);       // one value per vertex
///     f.list(frontier);         // variable-length vertex list
///     f.u64(iterations);        // scalars
///   }
///
/// The session runs it over a StateWriter to save and over a StateReader
/// to restore. A restore is two-phase: running the declaration only
/// parses each field into staging; commit() then requires the payload to
/// be fully consumed before any setter touches the kernel. A snapshot
/// rejected anywhere — wrong tag, wrong vertex count, fields missing or
/// left over — therefore leaves the kernel's fresh state as it was.
class StateFields {
 public:
  explicit StateFields(StateWriter& w) : writer_(&w) {}
  explicit StateFields(StateReader& r) : reader_(&r) {}

  /// Integral or bool scalar, stored under the 'u' tag.
  template <typename T>
  void u64(T& v) {
    if (writer_ != nullptr) {
      writer_->put_u64(static_cast<std::uint64_t>(v));
    } else {
      setters_.emplace_back(
          [&v, x = reader_->get_u64()] { v = static_cast<T>(x); });
    }
  }

  /// Signed scalar, stored under the 'i' tag.
  template <typename T>
  void i64(T& v) {
    if (writer_ != nullptr) {
      writer_->put_i64(static_cast<std::int64_t>(v));
    } else {
      setters_.emplace_back(
          [&v, x = reader_->get_i64()] { v = static_cast<T>(x); });
    }
  }

  /// `n` values, one per vertex: `get(v)` reads vertex v's value and
  /// `set(v, x)` writes it back, so atomics, array-of-structs vertex
  /// objects and swapped buffers all fit. A restore rejects a snapshot
  /// whose count is not `n` (one taken on another graph).
  template <typename Get, typename Set>
  void per_vertex(std::size_t n, Get get, Set set) {
    using T = std::decay_t<decltype(get(std::size_t{0}))>;
    if (writer_ != nullptr) {
      writer_->put_each<T>(n, get);
      return;
    }
    const std::string_view raw = reader_->get_array_bytes<T>();
    EPGS_CHECK(raw.size() == n * sizeof(T),
               "snapshot holds " + std::to_string(raw.size() / sizeof(T)) +
                   " per-vertex values, graph has " + std::to_string(n) +
                   " vertices (vertex count mismatch)");
    setters_.emplace_back([raw, n, set] {
      for (std::size_t v = 0; v < n; ++v) {
        T x;
        std::memcpy(&x, raw.data() + v * sizeof(T), sizeof(T));
        set(v, x);
      }
    });
  }

  /// Every element of an indexable container (std::vector,
  /// FirstTouchVector, NumaArray); atomic elements are loaded and stored
  /// relaxed. The declaration runs afresh at every save, so a buffer the
  /// kernel swaps is bound as it is at that moment.
  template <typename C>
  void per_vertex(C& c) {
    if constexpr (requires { c[0].load(); }) {
      per_vertex(
          c.size(),
          [&c](std::size_t v) { return c[v].load(std::memory_order_relaxed); },
          [&c](std::size_t v, auto x) {
            c[v].store(x, std::memory_order_relaxed);
          });
    } else {
      per_vertex(
          c.size(), [&c](std::size_t v) { return c[v]; },
          [&c](std::size_t v, auto x) { c[v] = x; });
    }
  }

  /// A variable-length list — a frontier, a bitmap's members, a queue
  /// window — read through `get()` and handed back through `set(list)`.
  /// A list of lists (delta-stepping buckets, BC level sets) is stored as
  /// its length followed by each inner list.
  template <typename Get, typename Set>
  void list(Get get, Set set) {
    using L = std::decay_t<decltype(get())>;
    if (writer_ != nullptr) {
      put_list(get());
    } else {
      setters_.emplace_back([set, staged = get_list<L>()]() mutable {
        set(std::move(staged));
      });
    }
  }

  /// A list held in a plain std::vector.
  template <typename T>
  void list(std::vector<T>& v) {
    list([&v]() -> const std::vector<T>& { return v; },
         [&v](std::vector<T> x) { v = std::move(x); });
  }

  /// Runs on restore after every field's setter, for state rebuilt from
  /// several fields (e.g. a frontier whose representation depends on a
  /// direction flag). Ignored on save.
  template <typename Fn>
  void after_restore(Fn fn) {
    if (reader_ != nullptr) hooks_.emplace_back(std::move(fn));
  }

  /// Second restore phase: require the payload to be consumed exactly,
  /// then apply every staged field in declaration order and run the
  /// after_restore hooks. Must run while the reader's buffer is alive.
  void commit();

 private:
  template <typename T>
  void put_list(const std::vector<T>& l) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      writer_->put_vec(l);
    } else {
      writer_->put_u64(l.size());
      for (const T& inner : l) put_list(inner);
    }
  }

  template <typename L>
  [[nodiscard]] L get_list() {
    using T = typename L::value_type;
    if constexpr (std::is_trivially_copyable_v<T>) {
      return reader_->get_vec<T>();
    } else {
      // Grown one inner list at a time: a corrupt count fails at the
      // first missing list instead of allocating up front.
      const std::uint64_t count = reader_->get_u64();
      L out;
      for (std::uint64_t i = 0; i < count; ++i) out.push_back(get_list<T>());
      return out;
    }
  }

  StateWriter* writer_ = nullptr;
  StateReader* reader_ = nullptr;
  std::vector<std::function<void()>> setters_;
  std::vector<std::function<void()>> hooks_;
};

/// What a kernel registers at its snapshot points: the one function that
/// names its state (see StateFields).
using StateDecl = std::function<void(StateFields&)>;

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
  /// payload that does not match the declared fields) is deleted,
  /// recorded in warning(), and treated as absent; the kernel's state is
  /// then untouched.
  std::uint64_t begin(std::string_view stage, StateDecl state);

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
  bool try_restore(std::string_view stage);
  bool write_snapshot();

  CheckpointConfig cfg_;
  std::filesystem::path path_;
  bool enabled_ = false;
  StateDecl state_;
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
