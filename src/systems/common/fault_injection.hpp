// Deterministic fault injection for the trial supervisor's test suite and
// the chaos harness.
//
// Every supervisor behaviour — watchdog cancellation, crash containment,
// retry/backoff, journal replay — must be demonstrable without wall-clock
// flakiness, so faults fire at exact, countable points: the Nth phase
// start (build or algorithm) of a named system. A test arms one Plan
// process-globally; the System base class reports each phase start here
// and the armed fault hangs, throws, aborts, or corrupts the phase's
// output. Production sweeps never arm a plan, and the hooks reduce to a
// relaxed atomic load of a null plan.
//
// fork() isolation note: a child inherits the armed plan *by value* at
// fork time, and its fire counters never propagate back, so under
// --isolate every isolated unit re-evaluates the plan from the parent's
// snapshot (a max_fires=1 abort aborts every matching child, not just the
// first). Plans that need fire-once semantics *across* re-forked retries
// set `once_marker`: a filesystem path claimed with O_CREAT|O_EXCL
// immediately before the fault executes, so the retry child finds the
// marker and skips. The chaos scheduler leans on this to make every
// injected fatal fault recoverable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "core/cancellation.hpp"

namespace epgs::fault {

enum class Kind {
  kNone,
  kHang,         ///< spin at the phase start until the token is cancelled
  kTransient,    ///< throw TransientError (retryable)
  kError,        ///< throw EpgsError (contained as Outcome::kCrash)
  kAbort,        ///< std::abort() — only survivable under --isolate
  kSegv,         ///< raise SIGSEGV — exercises the crash-forensics handler
  kBadAlloc,     ///< throw std::bad_alloc (memory-squeeze stand-in)
  kWrongOutput,  ///< corrupt the phase's result so validation rejects it
};

[[nodiscard]] std::string_view kind_name(Kind k);

struct Plan {
  std::string system;  ///< exact System::name() match; empty = any system
  Kind kind = Kind::kNone;
  int at_phase = 0;    ///< fire from the Nth matching phase start on...
  int max_fires = 1;   ///< ...but at most this many times
  std::string phase;   ///< optional phase-name filter; empty = any phase
  /// When set, the fault claims this marker file (O_CREAT|O_EXCL) right
  /// before executing; a plan whose marker already exists never fires
  /// again — fire-once across fork-isolated retries.
  std::string once_marker;
};

/// Arm `plan` for the whole process (tests only; not thread-safe against
/// concurrently running trials — arm before the sweep starts).
void arm(const Plan& plan);

/// Remove any armed plan and zero the counters.
void disarm();

[[nodiscard]] bool armed();

/// Matching phase starts observed since arm() — lets tests assert that a
/// resumed sweep re-executed exactly zero journaled trials.
[[nodiscard]] int phase_events();

/// Times the armed fault actually fired.
[[nodiscard]] int fire_count();

/// Called by System at every phase start. May throw TransientError /
/// EpgsError, abort the process, or — for kHang — block until `token` is
/// cancelled (forever when token is null: a genuine hang, which only the
/// isolation layer's hard kill can end).
void on_phase_start(std::string_view system, std::string_view phase,
                    const CancellationToken* token);

/// Called by System after a phase produced its result; true when an armed
/// kWrongOutput fault fired at this phase and the result must be
/// corrupted.
[[nodiscard]] bool take_wrong_output();

/// RAII arming for tests: disarms on scope exit.
class Scoped {
 public:
  explicit Scoped(const Plan& plan) { arm(plan); }
  ~Scoped() { disarm(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
};

// --- Checkpoint-boundary faults ----------------------------------------
//
// The kill-resume correctness bar ("a trial SIGKILLed mid-kernel and
// resumed is bit-identical to an uninterrupted run") needs deaths at
// exact snapshot boundaries. Both plans key on the *iteration* a snapshot
// covers, not a fire counter: a resumed kernel never re-writes the
// snapshot for iteration N, so the fault naturally fires exactly once
// even though fork children inherit the armed plan by value. The
// once_marker is belt-and-braces for chaos compositions where a
// *different* fault forces a full restart (snapshot unreadable) and the
// iteration would otherwise be reached again.

/// SIGKILL the current process right after the snapshot covering
/// completed iteration `at_iteration` of a matching system became
/// durable. Only survivable under --isolate (the child dies, the parent
/// resumes it) — exactly the production failure mode being rehearsed.
struct KillPlan {
  std::string system;  ///< exact System::name() match; empty = any system
  std::uint64_t at_iteration = 1;
  std::string once_marker;  ///< see Plan::once_marker
};

void arm_kill_at_checkpoint(const KillPlan& plan);
void disarm_kill_at_checkpoint();

/// Called by System after every durable snapshot write.
void on_checkpoint_saved(std::string_view system, std::uint64_t iteration);

/// Arm from $EPGS_KILL_AT_CKPT ("[<system>:]<iteration>") when set; the
/// CI kill-resume smoke drives the real `epg` binary with it. A missing
/// or empty variable is a no-op; a malformed spec throws EpgsError.
void arm_kill_from_env();

/// Cancel the unit's token when a matching system reaches completed
/// iteration `at_iteration` — the in-process flavour of KillPlan for
/// tests that cannot afford a real SIGKILL. The kernel unwinds through
/// its cancellation checkpoint, which writes a final snapshot first.
struct CancelPlan {
  std::string system;  ///< exact System::name() match; empty = any system
  std::uint64_t at_iteration = 1;
  std::string once_marker;  ///< see Plan::once_marker
};

void arm_cancel_at_iteration(const CancelPlan& plan);
void disarm_cancel_at_iteration();

/// Called by System at every iteration boundary, before the token poll.
void on_iteration_boundary(std::string_view system, std::uint64_t completed,
                           const CancellationToken* token);

// --- Snapshot-publish faults -------------------------------------------
//
// The torn-publish failure mode: a process dying *between* the durable
// tmp write and the rename that publishes it. The checkpoint writer
// exposes a hook at exactly that instant (see set_snapshot_publish_hook
// in core/checkpoint.hpp); arming a PublishKillPlan installs a SIGKILL
// there. The invariant under test: the snapshot path afterwards holds
// either nothing or the previous valid snapshot — never a torn frame
// that peek_iteration() accepts.

/// SIGKILL the current process at the `at_publish`-th snapshot publish
/// point (1-based), after the tmp file is durable but before the rename.
struct PublishKillPlan {
  int at_publish = 1;
  std::string once_marker;  ///< see Plan::once_marker
};

void arm_kill_at_publish(const PublishKillPlan& plan);

/// Disarm every fault family at once (chaos round teardown).
void disarm_all();

}  // namespace epgs::fault
