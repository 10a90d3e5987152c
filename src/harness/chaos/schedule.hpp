// Seeded chaos schedules: one RNG seed expands into a reproducible
// multi-round fault schedule composed from the repo's deterministic
// fault primitives — phase-level faults (hang / transient / error /
// abort / SIGSEGV / bad_alloc / wrong-output), SIGKILLs at checkpoint
// and snapshot-publish boundaries, and errno injection at the fs_shim
// choke point.
//
// Every event is designed to be *recoverable* under the chaos harness's
// supervisor configuration (isolation + retry_all_failures + once
// markers): the invariant the executor checks is that a chaos sweep's
// CSV, with its volatile columns stripped, is byte-identical to the
// fault-free control. The schedule is pure data with an exact text form
// (`to_spec` / `parse_spec`), so a shrunk counterexample replays from a
// file (`epg chaos --replay`).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/fs_shim.hpp"

namespace epgs::harness::chaos {

/// Which fault primitive an event arms. The first block maps onto
/// fault::Plan kinds; the rest each map onto their own plan family, so a
/// round can arm at most one event per family (the injector holds one
/// process-global plan per family).
enum class EventKind {
  kHang,              ///< spin until the deadline cancels (-> kTimeout)
  kTransient,         ///< TransientError (-> retry)
  kError,             ///< EpgsError (-> kCrash, contained)
  kAbort,             ///< std::abort in the isolated child
  kSegv,              ///< raise SIGSEGV — exercises crash forensics
  kBadAlloc,          ///< std::bad_alloc (-> kOomKilled)
  kWrongOutput,       ///< corrupt a validated result (-> kValidationFailed)
  kKillAtCheckpoint,  ///< SIGKILL right after a durable snapshot
  kKillAtPublish,     ///< SIGKILL inside the torn-publish window
  kFsFault,           ///< inject errno at the fs_shim choke point
};

/// One armed fault within one chaos round. Which fields matter depends
/// on the kind; unused fields keep their defaults so the spec form stays
/// canonical (same event -> same line).
struct ChaosEvent {
  int round = 0;      ///< which chaos round arms this event
  EventKind kind = EventKind::kTransient;
  std::string system;  ///< exact System::name() match; empty = any
  /// Phase filter for the phase kinds. The generator always sets an
  /// *algorithm* phase name ("bfs", "pagerank", ...): algorithm units run
  /// fork-isolated, so aborts/SIGSEGVs are contained, whereas builds run
  /// in the parent where a kAbort would kill the harness itself.
  std::string phase;
  /// kKillAtCheckpoint: the covered iteration; kKillAtPublish: the Nth
  /// publish point; kFsFault: the Nth matching syscall in each isolated
  /// child (snapshot writes happen there). Phase kinds keep
  /// at=1 — under isolation each child observes its own first matching
  /// phase start, so higher values would never fire.
  int at = 1;
  int fires = 1;                    ///< max fires (phase + fs kinds)
  fsx::Op fs_op = fsx::Op::kWrite;  ///< kFsFault only
  int fs_errno = 28;                ///< kFsFault only (default ENOSPC)
  std::string path_substr;          ///< kFsFault only; empty = any path
  /// Arm with a once-marker file so the fault fires at most once across
  /// fork-isolated retries — the property that makes a fatal fault
  /// recoverable. The executor turns this on for everything it
  /// generates; --force-violation turns it off to make a fault persist
  /// past every retry.
  bool once = true;
};

/// Human-readable one-liner ("round 2: segv GAP/bfs (once)").
[[nodiscard]] std::string describe(const ChaosEvent& e);

struct ChaosSchedule {
  std::uint64_t seed = 0;
  int rounds = 0;
  std::vector<ChaosEvent> events;  ///< sorted by round
};

/// What the generator may target. The executor fills this from the
/// experiment config; empty vectors disable the corresponding kinds.
struct GeneratorConfig {
  std::vector<std::string> systems;  ///< System::name() values
  std::vector<std::string> phases;   ///< algorithm phase names ("bfs", ...)
  /// Phases whose results are validated on *every* trial (bfs/sssp when
  /// configured) — the only safe targets for kWrongOutput, since an
  /// unvalidated corruption would go undetected and unretried.
  std::vector<std::string> validated_phases;
  /// Enable the checkpoint-coupled kinds (kill-at-checkpoint /
  /// kill-at-publish); requires the executor to run with per-iteration
  /// snapshots.
  bool checkpoint_kinds = true;
  /// Path filter for generated fs faults. The executor points this at
  /// the snapshot writes under its ckpt- directories: a failed save
  /// degrades to "no further snapshots for this unit", so the fault
  /// exercises real ENOSPC handling without poisoning the journal the
  /// invariant check replays.
  std::string fs_path_substr;
};

/// Expand (seed, rounds) into a schedule: 1-3 events per round, at most
/// one per plan family, every parameter drawn from one Xoshiro256 stream
/// so the same seed always yields the same schedule.
[[nodiscard]] ChaosSchedule generate_schedule(std::uint64_t seed, int rounds,
                                              const GeneratorConfig& cfg);

// --- Spec text ----------------------------------------------------------
//
// Line-oriented, exact round-trip. Grammar:
//
//   epgs-chaos-v1
//   seed <u64>
//   rounds <K>
//   event <round>|<kind>|<system>|<phase>|<at>|<fires>|<op>|<errno>|<path>|<once>
//
// Fields are '|'-separated; system/phase/path may be empty. `once` is 0
// or 1. Unknown kinds, non-numeric numbers, or wrong field counts throw
// EpgsError — a replay spec is user input.

[[nodiscard]] std::string to_spec(const ChaosSchedule& s);
[[nodiscard]] ChaosSchedule parse_spec(const std::string& text);

}  // namespace epgs::harness::chaos
