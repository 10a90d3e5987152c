// The chaos executor: drive a real sweep under a seeded fault schedule
// and check the determinism invariant.
//
//   control   one fault-free sweep; its CSV (volatile columns stripped)
//             is the ground truth.
//   rounds    K sweeps, each arming that round's events from the
//             schedule, each over a fresh journal / checkpoint / marker
//             directory. Every generated fault is recoverable by
//             construction (isolation + retry_all_failures + once
//             markers), so the invariant after each round is:
//               1. stripped CSV byte-identical to the control, and
//               2. the round's journal replays cleanly with every unit
//                  recorded as a success.
//   shrink    on violation, ddmin the schedule down to a 1-minimal event
//             subset and write it as a --replay spec file.
//
// Volatile CSV columns are the ones faults are *allowed* to perturb:
// seconds (wall time), attempts, resumed_from. Everything else —
// dataset, work counters, iteration counts, outcomes — must come back
// bit-for-bit, which is exactly the checkpoint layer's "resumed run is
// identical" bar extended to every fault family at once.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/chaos/schedule.hpp"
#include "harness/experiment.hpp"

namespace epgs::harness::chaos {

struct ChaosOptions {
  std::uint64_t seed = 1;
  int rounds = 3;
  bool shrink = false;           ///< ddmin the schedule on violation
  /// Append a persistent wrong-output fault the retry budget cannot
  /// clear — a deliberate invariant violation for exercising the
  /// detector and shrinker end to end.
  bool force_violation = false;
  /// Scratch root for journals, checkpoints, markers, crash reports,
  /// and the minimal-spec file.
  std::string work_dir = "chaos-out";
  /// Spec text to replay instead of generating from the seed (the
  /// --replay path); empty generates.
  std::string replay_spec;
  /// Per-attempt timeout for the chaos sweeps. Must comfortably exceed
  /// a clean unit; kHang events each burn one deadline.
  double timeout_seconds = 20.0;
  /// Retry budget per unit. Generated faults fire once, so 1 would do;
  /// the default leaves headroom for two faults landing on one unit.
  int max_retries = 3;
};

/// One chaos round's verdict.
struct RoundReport {
  int round = 0;
  bool csv_match = false;      ///< stripped CSV == control
  bool journal_clean = false;  ///< replayed, every unit a success
  std::vector<std::string> armed;         ///< describe() of armed events
  /// Post-hoc classification: which events fired (once-marker claimed;
  /// fs events fire in isolated children, unseen by the parent) and what
  /// the supervisor observed per affected unit (outcome, attempts, crash
  /// fingerprint).
  std::vector<std::string> observations;
  std::string detail;  ///< first divergence / replay failure; empty if ok
  [[nodiscard]] bool ok() const { return csv_match && journal_clean; }
};

struct ChaosReport {
  ChaosSchedule schedule;
  std::vector<RoundReport> rounds;
  bool violated = false;
  /// 1-minimal violating subset (only when violated and shrink ran).
  std::vector<ChaosEvent> minimal;
  int shrink_probes = 0;
  /// Where the minimal reproducer spec was written (violation only).
  std::string minimal_spec_path;
};

/// Run the full chaos protocol over `base` (typically a small Kronecker
/// config). `base`'s supervisor options are overridden with the chaos
/// posture (isolate + retry_all + per-iteration checkpoints + forensics);
/// everything else — graph, systems, algorithms, trials — is respected.
ChaosReport run_chaos(const ExperimentConfig& base, const ChaosOptions& opts);

/// Aligned text summary for the CLI.
[[nodiscard]] std::string render_chaos_report(const ChaosReport& rep);

}  // namespace epgs::harness::chaos
