// Collect stage of the runner: owns the journal (replay-on-resume +
// append) and accumulates the flat phase records as units finish. The
// execute stage never touches the journal or the record vector directly.
#pragma once

#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/fs_shim.hpp"
#include "harness/records.hpp"
#include "harness/supervisor.hpp"
#include "harness/sweep_plan.hpp"

namespace epgs::harness {

class RecordCollector {
 public:
  /// Opens the journal per `sup`: on resume, replays completed units
  /// (validated against `fingerprint`) and reopens for append; otherwise
  /// starts fresh. No-op when journaling is disabled.
  ///
  /// A non-empty `iter_trace_dir` additionally opens the per-iteration
  /// telemetry sidecar `<dir>/itertrace-<fingerprint>.jsonl` (sanitized
  /// name + FNV tag, same scheme as checkpoint files): one JSON object
  /// per KernelRun iteration row, appended as units finish. Opened for
  /// append on --resume so a continued sweep extends the same file;
  /// journal-replayed units are not written again, so their rows are the
  /// ones written before the interruption. Sidecar I/O errors degrade to
  /// trace_warning(), never fail the sweep.
  RecordCollector(const SupervisorOptions& sup, std::string fingerprint,
                  const std::string& iter_trace_dir = {});

  /// Replayed journal entries keyed by unit key (empty without --resume).
  [[nodiscard]] const std::map<std::string, JournalEntry>& journaled()
      const {
    return journaled_;
  }

  [[nodiscard]] bool is_journaled(const std::string& key) const {
    return journaled_.count(key) != 0;
  }

  /// Emit the replayed units' records up front, in plan order and built
  /// by unit_records like a live unit's, for the planned systems only
  /// (the fingerprint deliberately omits the system list, so a resumed
  /// sweep may add or drop systems).
  void emit_replayed(const SweepPlan& plan);

  /// Durably journal one finished unit's report and append its records.
  void store(const std::string& key, std::vector<RunRecord> recs,
             const TrialReport& rep);

  /// Append records without journaling (config failures, failed loads
  /// and builds — a resume should retry those).
  void add(std::vector<RunRecord> recs);

  [[nodiscard]] std::vector<RunRecord> take() { return std::move(records_); }

  /// Why the journal stopped appending (empty while healthy/disabled).
  [[nodiscard]] const std::string& journal_warning() const {
    return journal_.degraded_reason();
  }

  /// Why the iter-trace sidecar stopped (empty while healthy/disabled).
  [[nodiscard]] const std::string& trace_warning() const {
    return trace_warning_;
  }

 private:
  /// Append one JSONL row per IterRecord across `recs`; degrades the
  /// sidecar (sets trace_warning_, closes the stream) on the first error.
  void write_timelines(const std::vector<RunRecord>& recs);

  Journal journal_;
  std::map<std::string, JournalEntry> journaled_;
  std::vector<RunRecord> records_;
  std::filesystem::path trace_path_;
  std::unique_ptr<fsx::OutStream> trace_;
  std::string trace_warning_;
};

}  // namespace epgs::harness
