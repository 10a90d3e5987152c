// The trial supervisor: fault tolerance for long benchmark sweeps.
//
// A comparative sweep multiplies systems x algorithms x trials into
// hundreds of units, any of which can hang (a livelocked frontier), crash
// (an adapter bug on a pathological graph), or fail transiently. The
// original easy-parallel-graph-* shell scripts died with the first bad
// unit and lost the night's run; comparative studies since (Ammar & Özsu,
// VLDB'18; LDBC Graphalytics) instead record per-unit DNF outcomes and
// keep going. This layer does that for the in-process harness:
//
//   * deadline  — each attempt's CancellationToken carries a steady_clock
//                 deadline timeout_seconds away and reads the interrupt
//                 flag (core/cancellation.hpp); adapters poll the token
//                 at iteration boundaries and unwind with CancelledError
//                 -> Outcome::kTimeout, or kInterrupted after SIGINT/
//                 SIGTERM. No thread is started for either.
//   * isolation — optionally fork() each unit so std::abort / segfaults
//                 are contained as Outcome::kCrash; the child writes its
//                 report (TrialReport::to_report_text) back over a pipe
//                 and the parent hard-kills it if even the in-child
//                 deadline poll is wedged.
//   * retry     — TransientError failures are re-attempted with seeded
//                 exponential backoff + jitter, up to max_retries.
//   * journal   — every finished unit's report is appended (fsync'd) to
//                 a journal that --resume replays, so a killed sweep
//                 restarts where it stopped instead of re-running
//                 completed trials.
//   * governor  — opts.mem_limit_bytes caps each unit's memory three
//                 ways: setrlimit(RLIMIT_AS) in forked children (an
//                 allocation over the cap fails with bad_alloc ->
//                 Outcome::kOomKilled), an in-process RSS watchdog — the
//                 one guard thread, because memory must be sampled
//                 between polls — that reads /proc/self/statm and cancels
//                 the token before the kernel's OOM killer fires, and
//                 SIGKILL'd children classified as kOomKilled rather than
//                 generic crashes.
//                 ResourceExhaustedError (ENOSPC, lock timeouts, fd
//                 exhaustion) maps to Outcome::kResourceExhausted.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/cancellation.hpp"
#include "core/checkpoint.hpp"
#include "core/error.hpp"
#include "core/fs_shim.hpp"
#include "core/phase_log.hpp"
#include "core/rng.hpp"
#include "harness/experiment.hpp"

namespace epgs::harness {

/// What one supervised unit attempt chain produced. Its text form is the
/// unit's report wherever one travels: an isolated child writes it to
/// the pipe, and the journal stores one per finished unit.
struct TrialReport {
  Outcome outcome = Outcome::kSuccess;
  int attempts = 1;            ///< total attempts, including the success
  /// Outcome of the last failed attempt (kSuccess when the first attempt
  /// passed), so "clean pass" and "passed on retry 3" are distinguishable.
  Outcome last_failure = Outcome::kSuccess;
  /// Completed-iteration count the final attempt restored from its
  /// checkpoint snapshot; -1 when it started fresh.
  std::int64_t resumed_from_iter = -1;
  double elapsed_seconds = 0;  ///< wall time across all attempts
  std::string message;         ///< failure detail; empty on success
  /// Stack fingerprint from the crash-forensics report of the last
  /// signal-killed attempt (empty when no attempt crashed, no report was
  /// armed, or the child died before its handler ran — e.g. SIGKILL).
  std::string crash_fingerprint;
  /// Path of that crash report, for the journal and post-mortem triage.
  std::string crash_report_path;
  /// Completed iterations covered by the snapshot a failed unit left
  /// behind, so a --resume continues it from there; -1 when none.
  std::int64_t snapshot_iter = -1;
  /// The first checkpoint warning any attempt's session raised (rejected
  /// snapshot, unusable directory, failed save); empty when none. It
  /// travels in the report, so an isolated child's warning reaches the
  /// parent and a journal replay repeats it.
  std::string warning;
  PhaseLog log;  ///< phases the final attempt appended

  /// The report as text, one field per line in member order, the
  /// PhaseLog text last:
  ///
  ///   outcome <name>
  ///   attempts <n>
  ///   last_failure <name>
  ///   resumed <iteration or -1>
  ///   elapsed <seconds>
  ///   message <one line>
  ///   crash_fingerprint <hex or empty>
  ///   crash_report <path or empty>
  ///   snapshot <iteration or -1>
  ///   warning <one line or empty>
  ///   log
  ///   <PhaseLog::to_log_text() through the end>
  [[nodiscard]] std::string to_report_text() const;

  /// Parse to_report_text() output. Throws EpgsError on a missing or
  /// malformed field, std::runtime_error on a malformed log.
  static TrialReport parse_report_text(std::string_view text);
};

/// The unit body: runs one (system, algorithm, trial) and returns the
/// PhaseLog it appended. Throws on failure; must poll the token it is
/// given (directly or via System::set_cancellation) or no deadline,
/// interrupt or RSS trip can cancel it.
using UnitFn = std::function<PhaseLog(CancellationToken&)>;

/// Classify an in-process failure for the outcome taxonomy.
[[nodiscard]] Outcome classify_exception(const std::exception& e);

/// Backoff delay before retry attempt `attempt` (1-based), in seconds.
[[nodiscard]] double backoff_delay(const SupervisorOptions& opts,
                                   int attempt, Xoshiro256& rng);

/// Execute one unit under the configured guard rails. Never throws for
/// unit failures — they come back as the report's outcome. `rng` feeds
/// backoff jitter and is advanced deterministically. When `session` is
/// non-null, the unit body is expected to attach it to its System: a
/// snapshot left behind by a timed-out/crashed/OOM-killed attempt makes
/// that failure retryable (within max_retries) with the retry continuing
/// from the snapshot, and the report carries resumed_from_iter.
TrialReport supervise_unit(const UnitFn& fn, const SupervisorOptions& opts,
                           Xoshiro256& rng,
                           CheckpointSession* session = nullptr);

// --- Interrupt handling --------------------------------------------------
//
// request_interrupt() and the flag it sets live in core/cancellation.hpp:
// a recorded SIGINT/SIGTERM cancels every token at its next poll, and
// run_attempt classifies the resulting CancelledError as
// Outcome::kInterrupted — never retried, dropped from journal replay so a
// --resume re-runs the unit from its final checkpoint snapshot.

// --- Journal -------------------------------------------------------------
//
// Append-only file of unit reports. Grammar:
//
//   epgs-journal-v3
//   config <fingerprint>
//   unit <key>|<bytes>
//   <TrialReport::to_report_text(), exactly <bytes> bytes>
//   end
//
// Each append writes one unit..end group and fsyncs, so a group is
// either durable or absent; replay ignores a trailing partial group (the
// unit that was in flight when the process died simply re-runs). A group
// whose body is shorter than its byte count, whose count is not a
// number, or whose body is not followed by an "end" line is such a
// partial group. A failed unit that left a resumable snapshot carries
// its iteration in the report's "snapshot" field. When the same key
// appears twice (a resumed sweep re-ran a unit), the later group wins.

/// One replayed journal entry: a unit key and its report.
struct JournalEntry {
  std::string key;  ///< unit key, e.g. "GAP|BFS|3" or "GAP|build|-1"
  TrialReport report;
};

/// Append-only fsync'd journal writer (no-op when path is empty). All
/// bytes route through the fs_shim, and the journal's parent directory is
/// fsync'd after creation so the file itself survives power loss. When
/// the disk fills mid-sweep the journal degrades: it stops appending,
/// records why (degraded_reason), and lets the sweep finish — losing
/// resume coverage is strictly better than losing the night's run.
class Journal {
 public:
  Journal() = default;
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Truncate/create `path` and write the header. `fingerprint`
  /// identifies the experiment configuration; resume refuses to replay a
  /// journal with a different one.
  void open_fresh(const std::string& path, const std::string& fingerprint);

  /// Open `path` for appending after a successful replay.
  void open_append(const std::string& path);

  [[nodiscard]] bool active() const { return file_ != nullptr; }

  /// Durably append one finished unit's report.
  void append(const std::string& key, const TrialReport& report);

  /// Why appending stopped (empty while the journal is healthy).
  [[nodiscard]] const std::string& degraded_reason() const {
    return degraded_reason_;
  }

  void close();

 private:
  std::unique_ptr<fsx::OutStream> file_;
  std::string degraded_reason_;
};

/// Replay a journal: validates the header and fingerprint, returns every
/// complete unit group, and silently drops a trailing partial group.
/// Throws EpgsError when the file is missing, has a bad header (a v1
/// journal included), or its fingerprint differs from `fingerprint`.
std::vector<JournalEntry> replay_journal(const std::string& path,
                                         const std::string& fingerprint);

/// Stable fingerprint of the parts of the config that determine unit
/// identity (graph, roots, resolved team size, algorithms — not the
/// system list, so a resumed sweep may add systems). threads=0 resolves
/// to max_threads(): replayed rows name the team size they ran with.
[[nodiscard]] std::string config_fingerprint(const ExperimentConfig& cfg);

}  // namespace epgs::harness
