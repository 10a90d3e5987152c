// Error handling: a checked-precondition macro, the library exception
// hierarchy, and the trial-outcome taxonomy the supervisor records.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace epgs {

/// Exception type for all recoverable library errors (bad input files,
/// malformed logs, invalid experiment configurations).
class EpgsError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// A malformed numeric field or token in an input file (SNAP, mtx, csv,
/// tsv, adj). Typed so readers can reject bad data loudly instead of
/// silently defaulting the field, while callers that only care about
/// "this file is bad" still catch it as EpgsError.
class ParseError : public EpgsError {
 public:
  using EpgsError::EpgsError;
};

/// An I/O operation failed for a reason that is not resource exhaustion
/// (EIO on read, a short read that hit EOF before the expected size, a
/// failed rename). Raised by the fs_shim wrappers so callers can tell a
/// sick disk apart from a full one.
class IoError : public EpgsError {
 public:
  using EpgsError::EpgsError;
};

/// The machine ran out of a finite resource: ENOSPC/EDQUOT on write, fd
/// exhaustion, a disk-free preflight below the configured floor, or a
/// cache-lock wait that timed out. The supervisor records these as
/// Outcome::kResourceExhausted; the dataset pipeline degrades to uncached
/// generation instead of aborting the sweep.
class ResourceExhaustedError : public EpgsError {
 public:
  using EpgsError::EpgsError;
};

/// Thrown by a cancellation checkpoint once the trial's token reports
/// cancelled; the supervisor classifies it by cause (kTimeout,
/// kInterrupted, kOomKilled).
class CancelledError : public EpgsError {
 public:
  using EpgsError::EpgsError;
};

/// A failure worth retrying (flaky I/O, injected transient faults). The
/// supervisor retries these with exponential backoff before recording
/// Outcome::kTransient.
class TransientError : public EpgsError {
 public:
  using EpgsError::EpgsError;
};

/// A system produced output that the reference oracles reject; recorded
/// as Outcome::kValidationFailed. (Distinct from the optional<string>
/// alias epgs::ValidationError returned by the validators themselves.)
class ValidationFailedError : public EpgsError {
 public:
  using EpgsError::EpgsError;
};

/// How one supervised (system, algorithm, trial) unit ended. Failures are
/// first-class data — comparative studies report OOMs/timeouts per system
/// (Ammar & Özsu, VLDB'18) and Graphalytics marks runs DNF rather than
/// aborting the sweep — so every record and CSV row carries one of these.
enum class Outcome {
  kSuccess,           ///< ran to completion (and validated, if requested)
  kTimeout,           ///< cancelled at its deadline
  kCrash,             ///< process death / abort / uncontained exception
  kTransient,         ///< retryable failure that exhausted its retries
  kValidationFailed,  ///< output rejected by the reference oracles
  kConfig,            ///< misconfiguration (e.g. unknown system name)
  kUnsupported,       ///< capability advertised but not implemented
  kOomKilled,         ///< memory limit: bad_alloc, RSS watchdog, or SIGKILL
  kResourceExhausted, ///< disk/fd exhaustion: ENOSPC, preflight, lock wait
  kInterrupted,       ///< SIGINT/SIGTERM: cancelled, journaled, resumable
};

inline constexpr int kNumOutcomes = 10;

[[nodiscard]] constexpr std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kSuccess: return "success";
    case Outcome::kTimeout: return "timeout";
    case Outcome::kCrash: return "crash";
    case Outcome::kTransient: return "transient";
    case Outcome::kValidationFailed: return "validation-failed";
    case Outcome::kConfig: return "config";
    case Outcome::kUnsupported: return "unsupported";
    case Outcome::kOomKilled: return "oom-killed";
    case Outcome::kResourceExhausted: return "resource-exhausted";
    case Outcome::kInterrupted: return "interrupted";
  }
  return "?";
}

[[nodiscard]] inline Outcome outcome_from_name(std::string_view name) {
  for (int i = 0; i < kNumOutcomes; ++i) {
    const auto o = static_cast<Outcome>(i);
    if (outcome_name(o) == name) return o;
  }
  throw EpgsError("unknown outcome: '" + std::string(name) + "'");
}

namespace detail {
[[noreturn]] inline void throw_check_failure(const char* expr,
                                             const char* file, int line,
                                             const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw EpgsError(os.str());
}
}  // namespace detail

}  // namespace epgs

/// Validate a runtime condition; throws epgs::EpgsError when false.
/// Used for input validation (always on, including release builds).
#define EPGS_CHECK(cond, msg)                                              \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::epgs::detail::throw_check_failure(#cond, __FILE__, __LINE__,       \
                                          (msg));                          \
    }                                                                      \
  } while (false)
