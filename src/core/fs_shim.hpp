// fs_shim: the single choke point for durable file I/O.
//
// Every writer and reader that the harness depends on for correctness —
// the dataset cache's snapshot/meta/homogenized files, the supervisor's
// journal, MappedFile's open/read/mmap — routes its syscalls through the
// wrappers in this namespace. That buys two things:
//
//   1. Typed failures. Raw errno values become IoError (sick disk: EIO,
//      unexpected EOF, failed rename) or ResourceExhaustedError (full
//      disk: ENOSPC/EDQUOT, fd exhaustion), so the supervisor can record
//      Outcome::kResourceExhausted and the dataset pipeline can degrade
//      to uncached generation instead of aborting the sweep.
//
//   2. Deterministic fault injection. In the style of the phase-level
//      injector (systems/common/fault_injection), a test arms one Plan
//      process-globally and the armed fault fires at exact, countable
//      syscalls: ENOSPC at the Nth write, EIO on read, a short write, a
//      failed rename or fsync, an mmap failure that forces MappedFile
//      onto its buffered fallback. Production runs never arm a plan and
//      every hook reduces to a relaxed atomic load of a disarmed state.
//
// CI arms the shim from the environment (EPGS_FS_FAULT) so the ENOSPC
// robustness smoke can drive the real `epg` binary; see arm_from_env().
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <ostream>
#include <string>
#include <string_view>

namespace epgs::fsx {

/// Syscall families the shim can inject faults into.
enum class Op { kOpen, kRead, kWrite, kRename, kFsync, kMmap };

[[nodiscard]] std::string_view op_name(Op op);
[[nodiscard]] Op op_from_name(std::string_view name);

/// One armed fault. Fires at the `at_call`-th matching call (1-based,
/// counted per plan, not per file) and keeps firing for `max_fires`
/// matching calls after that. An empty `path_substr` matches every path;
/// otherwise only paths containing the substring count and fire — so a
/// test can starve the cache directory of disk while the journal on
/// another path stays writable.
struct Plan {
  Op op = Op::kWrite;
  int error_code = 28;        ///< errno to inject (default ENOSPC)
  int at_call = 1;            ///< fire from the Nth matching call on...
  int max_fires = 1 << 30;    ///< ...for at most this many calls
  bool short_write = false;   ///< kWrite only: truncate instead of failing
  std::string path_substr;    ///< substring filter on the path; empty = any
};

/// Arm `plan` for the whole process (tests and the CI smoke only; arm
/// before the sweep starts — the counters are atomic but the plan swap is
/// not safe against concurrently running trials).
void arm(const Plan& plan);

/// Remove any armed plan and zero the counters.
void disarm();

[[nodiscard]] bool armed();

/// Times the armed fault actually fired.
[[nodiscard]] int fire_count();

/// Parse and arm a plan from spec text of the form
///   `<op>:<errno-name>[:at=N][:count=N][:short][:path=SUBSTR]`
/// e.g. `write:ENOSPC:path=epgs-cache` or `read:EIO:at=3:count=1`.
/// Throws EpgsError on a malformed spec.
void arm_from_spec(std::string_view spec);

/// Arm from $EPGS_FS_FAULT when set (called once by the CLI). A missing
/// or empty variable is a no-op.
void arm_from_env();

/// RAII arming for tests: disarms on scope exit.
class Scoped {
 public:
  explicit Scoped(const Plan& plan) { arm(plan); }
  ~Scoped() { disarm(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
};

// --- Throwing syscall wrappers ----------------------------------------
//
// Each wrapper consults the armed plan, then performs (or fails) the real
// syscall, and converts errno into the typed hierarchy: ENOSPC/EDQUOT/
// EMFILE/ENFILE/ENOMEM -> ResourceExhaustedError, everything else ->
// IoError. All paths in messages are the caller's, so a failure names the
// file that hurt.

/// open(2) for reading. Returns the fd; throws on failure.
[[nodiscard]] int open_read(const std::filesystem::path& p);

/// read(2) with EINTR retry and read-fault injection. Returns 0 at EOF,
/// the (possibly short) byte count otherwise; throws IoError on error.
[[nodiscard]] std::size_t read_some(int fd, void* buf, std::size_t n,
                                    const std::filesystem::path& p);

/// mmap(2) PROT_READ of `[0, n)` of `fd`. Returns nullptr when the map
/// fails or an armed kMmap fault fires — callers fall back to buffered
/// reads, extending the mmap->buffered degradation chain.
[[nodiscard]] void* mmap_read(int fd, std::size_t n,
                              const std::filesystem::path& p);

/// rename(2). Throws on failure (the cache treats a failed publish rename
/// as a resource fault and degrades).
void rename(const std::filesystem::path& from,
            const std::filesystem::path& to);

/// fsync(2) on an open fd; `p` names it for errors.
void fsync_fd(int fd, const std::filesystem::path& p);

/// Durability fix for atomic publishes: fsync the *directory* so the
/// rename (or file creation) itself survives power loss. Opens the
/// directory O_RDONLY and fsyncs that fd.
void fsync_dir(const std::filesystem::path& dir);

/// statvfs(3): bytes available to unprivileged writers on the filesystem
/// holding `p`. Throws IoError when the path cannot be statted.
[[nodiscard]] std::uint64_t free_disk_bytes(const std::filesystem::path& p);

// --- OutStream ---------------------------------------------------------

/// A std::ostream whose bytes reach the kernel exclusively through the
/// shim's write wrapper. Drop-in for the std::ofstream writers in the
/// homogenizer, snapshot, meta, and journal code: `<<` formatting works
/// unchanged, but an injected (or real) ENOSPC surfaces as a typed
/// exception instead of a silently-ignored badbit, and a short write is
/// retried to completion the way a torn buffered write must be.
class OutStream : public std::ostream {
 public:
  enum class Mode { kTruncate, kAppend };

  /// Open `p` for writing. Throws on open failure.
  explicit OutStream(const std::filesystem::path& p,
                     Mode mode = Mode::kTruncate);
  ~OutStream() override;

  OutStream(const OutStream&) = delete;
  OutStream& operator=(const OutStream&) = delete;

  /// Flush the stream buffer to the fd and fsync(2) it (journal-group and
  /// cache-file durability).
  void sync_now();

  /// Flush and close, throwing on any buffered error the stream would
  /// otherwise swallow. The destructor closes too but must not throw, so
  /// durable writers call close() explicitly.
  void close();

  [[nodiscard]] const std::filesystem::path& path() const;

 private:
  class Buf;
  Buf* buf_;  ///< owned; freed in the destructor after the base detaches
};

}  // namespace epgs::fsx
