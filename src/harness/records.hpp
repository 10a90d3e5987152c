// Phase-4 record types: the flat rows every downstream consumer
// (runner, CSV emitter, analysis) shares. Kept free of
// runner/supervisor dependencies so the collect layer can be included by
// both without cycles.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/phase_log.hpp"
#include "core/types.hpp"

namespace epgs::harness {

/// One timed phase of one trial: a row of the phase-4 CSV. A non-success
/// outcome row is a DNF marker: its phase names what was attempted, its
/// seconds are the time lost, and extra["error"] carries the message.
struct RunRecord {
  std::string dataset;
  std::string system;
  std::string algorithm;  ///< empty for construction phases
  int threads = 0;
  int trial = -1;         ///< root index / repetition; -1 for build-once
  std::string phase;      ///< "build graph", "run algorithm", ...
  double seconds = 0.0;
  WorkStats work;
  std::map<std::string, std::string> extra;  ///< e.g. iterations
  Outcome outcome = Outcome::kSuccess;
  /// Per-iteration telemetry (KernelRun rows). The CSV row format
  /// deliberately omits it (kill/resume byte-identity); timelines_to_jsonl
  /// renders it for --iter-trace instead. Units replayed from the journal
  /// keep it: the journal stores their logs.
  std::vector<IterRecord> timeline;
};

/// Result of a full experiment.
struct ExperimentResult {
  std::vector<RunRecord> records;
  std::vector<vid_t> roots;
  /// Per-system log text, keyed by system name: the concatenated text of
  /// every successful unit, live or journal-replayed, in the order of its
  /// records, exactly what those records were parsed from.
  std::map<std::string, std::string> raw_logs;
  /// True when the run went through the zero-copy dataset pipeline
  /// (cache + native-file loads) rather than staging edges from RAM.
  bool used_dataset_pipeline = false;
  /// With the pipeline: whether the dataset came from a cache hit.
  bool dataset_cache_hit = false;
  /// The dataset cache failed (disk full, lock timeout, I/O error) and
  /// the run fell back to uncached in-RAM generation.
  bool dataset_degraded = false;
  /// Degradations the run survived, one full sentence each, in this
  /// order: the dataset cache fell back to in-RAM generation, a unit's
  /// checkpoint session rejected a snapshot, could not use its directory
  /// or failed a save (one per unit key, in record order, whether the
  /// unit ran in-process, isolated or was replayed from the journal),
  /// journaling stopped mid-sweep (a --resume re-runs the unjournaled
  /// tail). Results are complete whatever this holds.
  std::vector<std::string> warnings;
  /// Systems this run built from the staged data (at least one build
  /// started), and systems it took already built from
  /// StagedDataset::pool instead.
  int systems_built = 0;
  int systems_reused = 0;

  /// Seconds of every successful record matching the given keys (empty
  /// algorithm matches any). DNF rows never contribute samples.
  [[nodiscard]] std::vector<double> seconds_of(
      std::string_view system, std::string_view phase,
      std::string_view algorithm = {}) const;

  /// Sum of iterations extra over matching successful records.
  [[nodiscard]] std::vector<double> iterations_of(
      std::string_view system, std::string_view algorithm) const;
};

/// Phase-4 output: render records as CSV (with header).
std::string records_to_csv(const std::vector<RunRecord>& records);

/// Parse a phase-4 CSV back into records (round-trip tested). Throws
/// EpgsError on an unrecognised header, a wrong column count, or a field
/// that fails to parse as its column's type.
std::vector<RunRecord> records_from_csv(const std::string& csv);

/// Per-iteration telemetry as JSONL (--iter-trace): one object per
/// timeline row of every record, in record order, keyed dataset, system,
/// algorithm, trial, phase, iter, seconds, frontier, edges, residual
/// (numbers at precision 17; null for a row without a residual).
std::string timelines_to_jsonl(const std::vector<RunRecord>& records);

/// CSV with the volatile columns removed — seconds(6), attempts(12),
/// resumed_from(13), 0-based. This is the byte-identity currency shared
/// by the chaos harness (faulted sweep == fault-free control), the CI
/// kill-resume smoke, and the serve tests (a reply served from a warm
/// graph == a direct run_experiment of the same spec): timing and retry
/// provenance may legitimately differ, and so may the `edges` column of
/// GAP's SSSP at more than one thread, where a vertex's edges count only
/// if it is not stale when its bucket runs. Everything else must match;
/// comparisons that include GAP's SSSP run it at one thread (an isolated
/// unit always does).
std::string records_to_stripped_csv(const std::vector<RunRecord>& records);

}  // namespace epgs::harness
