// Crash forensics: async-signal-safe post-mortem capture for fork children.
//
// When a supervised trial dies on a signal, the parent only learns the
// WTERMSIG — "crash" with zero diagnostic context. This layer arms
// handlers for the fatal signals (SEGV/ABRT/BUS/ILL/FPE) inside the
// fork-isolated child; on delivery the handler writes a small text report
// into a *pre-opened* fd — signal, si_code, fault address, errno, the
// active phase/iteration, and the armed fault plans — then dumps the call
// stack with backtrace_symbols_fd and re-raises with SIG_DFL so the
// parent still observes the true WTERMSIG. Everything on the handler path
// is async-signal-safe: raw write(2)/fsync(2), hand-rolled integer
// formatting, fixed static buffers, and a backtrace() warm-up at arm time
// so libgcc is already loaded when the handler needs it.
//
// The parent parses the report with read_report() and condenses the stack
// into a short fingerprint (FNV-1a over the module+offset portion of each
// frame, which is stable under ASLR) so repeated identical crashes
// deduplicate in the outcome table.
//
// Context notes (note_phase / note_iteration / note_fault) are cheap
// enough to call from hot paths: a disarmed process pays one relaxed
// atomic load. The note buffers are fixed-size and always NUL-terminated;
// a crash racing a note writer can read a torn string, never out of
// bounds.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace epgs::crash {

inline constexpr std::string_view kReportMagic = "epgs-crash-v1";

/// Install the fatal-signal handlers, writing any report to `fd` (owned by
/// the caller, must stay open while armed). Also installs an alternate
/// signal stack so stack-overflow SIGSEGVs still report.
void arm_fd(int fd) noexcept;

/// Open `path` (create/truncate) and arm_fd() on it. Returns false —
/// leaving the process disarmed — when the file cannot be opened; crash
/// forensics must never turn an open failure into a trial failure.
bool arm(const std::filesystem::path& path) noexcept;

/// Restore SIG_DFL for the handled signals and close the arm()-opened fd
/// (an arm_fd() fd stays open: the caller owns it).
void disarm() noexcept;

[[nodiscard]] bool armed() noexcept;

// --- Context notes ------------------------------------------------------

/// Record the phase the process is entering ("<system>/<phase>").
void note_phase(std::string_view system, std::string_view phase) noexcept;

/// Record the last completed kernel iteration.
void note_iteration(std::uint64_t completed) noexcept;

/// Number of independent fault-plan note slots (phase faults, fs faults,
/// checkpoint kills, ... each arm their own).
inline constexpr int kFaultSlots = 4;

/// Record (or clear, with empty `desc`) the armed fault plan in `slot`.
void note_fault(int slot, std::string_view desc) noexcept;

// --- Parsing (parent side) ---------------------------------------------

struct CrashReport {
  int signal = 0;            ///< e.g. 11
  std::string signal_name;   ///< e.g. "SIGSEGV"
  int si_code = 0;
  std::string fault_addr;    ///< hex, SEGV/BUS only; empty otherwise
  int saved_errno = 0;       ///< errno at handler entry
  std::string phase;         ///< "<system>/<phase>", may be empty
  std::int64_t iteration = -1;
  std::vector<std::string> faults;     ///< armed fault plans, one per slot
  std::vector<std::string> backtrace;  ///< raw backtrace_symbols_fd lines
  std::string fingerprint;   ///< stack_fingerprint(backtrace)
};

/// Parse a report file. nullopt when the file is absent, empty (the child
/// died without its handler running, e.g. SIGKILL), or not a crash
/// report.
[[nodiscard]] std::optional<CrashReport> read_report(
    const std::filesystem::path& path);

/// 16-hex-digit FNV-1a over the ASLR-stable portion of each frame (the
/// text before the bracketed absolute address), so identical crash sites
/// fingerprint identically across runs of the same binary.
[[nodiscard]] std::string stack_fingerprint(
    const std::vector<std::string>& frames);

[[nodiscard]] std::string_view signal_name(int sig);

}  // namespace epgs::crash
