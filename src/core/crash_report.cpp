#include "core/crash_report.hpp"

#include <array>
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#if __has_include(<execinfo.h>)
#include <execinfo.h>
#define EPGS_HAVE_BACKTRACE 1
#else
#define EPGS_HAVE_BACKTRACE 0
#endif

#include "core/text_scan.hpp"

namespace epgs::crash {
namespace {

constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGBUS, SIGILL, SIGFPE};
constexpr std::size_t kNoteLen = 192;

std::atomic<int> g_fd{-1};
std::atomic<bool> g_owns_fd{false};
std::atomic<bool> g_armed{false};
std::atomic<bool> g_handling{false};

// Note buffers: written by note_*() on the normal path, read by the
// handler. Always NUL-terminated; a torn read mid-update is acceptable.
char g_phase[kNoteLen] = {0};
std::atomic<std::int64_t> g_iteration{-1};
char g_faults[kFaultSlots][kNoteLen] = {{0}};

// Alternate stack so a stack-overflow SIGSEGV still gets a report.
alignas(16) char g_altstack[64 * 1024];

void copy_note(char* dst, std::string_view a, std::string_view b = {}) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < a.size() && n + 1 < kNoteLen; ++i) {
    dst[n++] = a[i];
  }
  if (!b.empty() && n + 1 < kNoteLen) dst[n++] = '/';
  for (std::size_t i = 0; i < b.size() && n + 1 < kNoteLen; ++i) {
    dst[n++] = b[i];
  }
  dst[n] = '\0';
}

// --- Async-signal-safe formatting --------------------------------------
// snprintf is not on the POSIX async-signal-safe list (locale machinery),
// so the handler composes its lines with these.

void raw_write(int fd, const char* s, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, s, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return;  // a failed report write must not re-crash the handler
    }
    s += static_cast<std::size_t>(w);
    n -= static_cast<std::size_t>(w);
  }
}

void put_str(int fd, const char* s) { raw_write(fd, s, std::strlen(s)); }

void put_i64(int fd, std::int64_t v) {
  char buf[24];
  char* p = buf + sizeof(buf);
  const bool neg = v < 0;
  std::uint64_t u =
      neg ? ~static_cast<std::uint64_t>(v) + 1 : static_cast<std::uint64_t>(v);
  do {
    *--p = static_cast<char>('0' + (u % 10));
    u /= 10;
  } while (u != 0);
  if (neg) *--p = '-';
  raw_write(fd, p, static_cast<std::size_t>(buf + sizeof(buf) - p));
}

void put_hex(int fd, std::uint64_t v) {
  char buf[18];
  char* p = buf + sizeof(buf);
  do {
    *--p = "0123456789abcdef"[v & 0xF];
    v >>= 4;
  } while (v != 0);
  raw_write(fd, p, static_cast<std::size_t>(buf + sizeof(buf) - p));
}

extern "C" void crash_handler(int sig, siginfo_t* info, void*) {
  const int saved_errno = errno;
  // A crash inside the handler (or a second fatal signal racing the
  // first) must not loop: fall straight through to the default action.
  if (g_handling.exchange(true)) {
    ::signal(sig, SIG_DFL);
    ::raise(sig);
    return;
  }
  const int fd = g_fd.load(std::memory_order_acquire);
  if (fd >= 0) {
    put_str(fd, "epgs-crash-v1\n");
    put_str(fd, "signal ");
    put_i64(fd, sig);
    put_str(fd, " ");
    // signal_name() is a switch over constants — safe here.
    const std::string_view name = signal_name(sig);
    raw_write(fd, name.data(), name.size());
    put_str(fd, "\ncode ");
    put_i64(fd, info != nullptr ? info->si_code : 0);
    if (info != nullptr && (sig == SIGSEGV || sig == SIGBUS)) {
      put_str(fd, "\naddr 0x");
      put_hex(fd, reinterpret_cast<std::uint64_t>(info->si_addr));
    }
    put_str(fd, "\nerrno ");
    put_i64(fd, saved_errno);
    if (g_phase[0] != '\0') {
      put_str(fd, "\nphase ");
      put_str(fd, g_phase);
    }
    const std::int64_t iter = g_iteration.load(std::memory_order_relaxed);
    if (iter >= 0) {
      put_str(fd, "\niteration ");
      put_i64(fd, iter);
    }
    for (const auto& slot : g_faults) {
      if (slot[0] != '\0') {
        put_str(fd, "\nfault ");
        put_str(fd, slot);
      }
    }
    put_str(fd, "\nbacktrace:\n");
#if EPGS_HAVE_BACKTRACE
    void* frames[64];
    const int depth = ::backtrace(frames, 64);
    if (depth > 0) ::backtrace_symbols_fd(frames, depth, fd);
#else
    put_str(fd, "(backtrace unavailable on this platform)\n");
#endif
    ::fsync(fd);
  }
  // Hand the signal back to the default action so the parent's waitpid
  // sees the genuine WTERMSIG. The delivered signal is blocked during
  // the handler, so raise() marks it pending and the kernel re-delivers
  // it — now fatally — the moment the handler returns.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

void arm_fd(int fd) noexcept {
  g_fd.store(fd, std::memory_order_release);
  g_handling.store(false);

  stack_t ss{};
  ss.ss_sp = g_altstack;
  ss.ss_size = sizeof(g_altstack);
  ::sigaltstack(&ss, nullptr);

#if EPGS_HAVE_BACKTRACE
  // Warm up libgcc's unwinder outside signal context: the first
  // backtrace() call may dlopen/allocate, which the handler must not.
  void* warm[4];
  ::backtrace(warm, 4);
#endif

  struct sigaction sa{};
  sa.sa_sigaction = crash_handler;
  sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
  ::sigemptyset(&sa.sa_mask);
  for (const int sig : kSignals) ::sigaction(sig, &sa, nullptr);
  g_armed.store(true, std::memory_order_release);
}

bool arm(const std::filesystem::path& path) noexcept {
  const int fd =
      ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  arm_fd(fd);
  g_owns_fd.store(true);
  return true;
}

void disarm() noexcept {
  if (!g_armed.exchange(false)) return;
  for (const int sig : kSignals) ::signal(sig, SIG_DFL);
  const int fd = g_fd.exchange(-1);
  if (fd >= 0 && g_owns_fd.exchange(false)) ::close(fd);
}

bool armed() noexcept { return g_armed.load(std::memory_order_acquire); }

void note_phase(std::string_view system, std::string_view phase) noexcept {
  if (!armed()) return;
  copy_note(g_phase, system, phase);
}

void note_iteration(std::uint64_t completed) noexcept {
  if (!armed()) return;
  g_iteration.store(static_cast<std::int64_t>(completed),
                    std::memory_order_relaxed);
}

void note_fault(int slot, std::string_view desc) noexcept {
  if (slot < 0 || slot >= kFaultSlots) return;
  copy_note(g_faults[slot], desc);
}

// --- Parsing ------------------------------------------------------------

std::string_view signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGBUS: return "SIGBUS";
    case SIGILL: return "SIGILL";
    case SIGFPE: return "SIGFPE";
    case SIGKILL: return "SIGKILL";
    case SIGTERM: return "SIGTERM";
    case SIGINT: return "SIGINT";
    default: return "SIG?";
  }
}

std::string stack_fingerprint(const std::vector<std::string>& frames) {
  // FNV-1a over the ASLR-stable prefix of each frame: glibc prints
  // "module(symbol+0xOFF)[0xABSOLUTE]" and only the bracketed absolute
  // address varies across runs of the same binary. Cut at the last '['
  // (brackets appear nowhere else in the format).
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](char c) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  };
  for (const std::string& frame : frames) {
    std::size_t cut = frame.rfind('[');
    if (cut != std::string::npos && cut > 0 && frame[cut - 1] == ' ') --cut;
    const std::size_t n = cut == std::string::npos ? frame.size() : cut;
    for (std::size_t i = 0; i < n; ++i) mix(frame[i]);
    mix('\n');
  }
  std::ostringstream os;
  os << std::hex;
  for (int shift = 60; shift >= 0; shift -= 4) {
    os << "0123456789abcdef"[(h >> shift) & 0xF];
  }
  return os.str();
}

std::optional<CrashReport> read_report(const std::filesystem::path& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != kReportMagic) return std::nullopt;

  CrashReport r;
  bool in_backtrace = false;
  while (std::getline(in, line)) {
    if (in_backtrace) {
      if (!line.empty()) r.backtrace.push_back(line);
      continue;
    }
    const std::size_t sp = line.find(' ');
    const std::string key = line.substr(0, sp);
    const std::string val =
        sp == std::string::npos ? std::string() : line.substr(sp + 1);
    // A malformed number leaves its field at the default: the report is
    // read best-effort and never fails the caller.
    if (key == "signal") {
      // "signal 11 SIGSEGV": the number is the first token only.
      const std::size_t sp2 = val.find(' ');
      r.signal = text::try_parse<int>(std::string_view(val).substr(0, sp2))
                     .value_or(r.signal);
      r.signal_name = sp2 == std::string::npos ? std::string(signal_name(r.signal))
                                               : val.substr(sp2 + 1);
    } else if (key == "code") {
      r.si_code = text::try_parse<int>(val).value_or(r.si_code);
    } else if (key == "addr") {
      r.fault_addr = val;
    } else if (key == "errno") {
      r.saved_errno = text::try_parse<int>(val).value_or(r.saved_errno);
    } else if (key == "phase") {
      r.phase = val;
    } else if (key == "iteration") {
      r.iteration = text::try_parse<std::int64_t>(val).value_or(r.iteration);
    } else if (key == "fault") {
      r.faults.push_back(val);
    } else if (key == "backtrace:") {
      in_backtrace = true;
    }
  }
  // An empty fingerprint means "no stack captured" — the journal and the
  // outcome table omit it rather than grouping on a hash of nothing.
  if (!r.backtrace.empty()) r.fingerprint = stack_fingerprint(r.backtrace);
  return r;
}

}  // namespace epgs::crash
