// Collect stage of the runner: owns the journal (replay-on-resume +
// append) and accumulates the flat phase records and per-system raw logs
// as units finish. The execute stage never touches the journal or the
// result directly. Report files (CSV, raw logs, iteration trace) are
// rendered from the result after the sweep, never streamed from here.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness/records.hpp"
#include "harness/supervisor.hpp"
#include "harness/sweep_plan.hpp"

namespace epgs::harness {

class RecordCollector {
 public:
  /// Opens the journal per `sup`: on resume, replays completed units
  /// (validated against `fingerprint`) and reopens for append; otherwise
  /// starts fresh. No-op when journaling is disabled.
  RecordCollector(const SupervisorOptions& sup, std::string fingerprint);

  /// Replayed journal entries keyed by unit key (empty without --resume).
  [[nodiscard]] const std::map<std::string, JournalEntry>& journaled()
      const {
    return journaled_;
  }

  [[nodiscard]] bool is_journaled(const std::string& key) const {
    return journaled_.count(key) != 0;
  }

  /// Emit the replayed units' records and raw logs up front, in plan
  /// order and built by unit_records like a live unit's, for the planned
  /// systems only (the fingerprint deliberately omits the system list, so
  /// a resumed sweep may add or drop systems).
  void emit_replayed(const SweepPlan& plan);

  /// Durably journal one finished unit's report, then add() it.
  void store(const SweepPlan& plan, const std::string& key,
             const TrialReport& rep);

  /// Append a unit's records, its checkpoint warning and, for a success,
  /// its log text to its system's raw log, without journaling (config
  /// failures, failed loads and builds — a resume should retry those).
  void add(const SweepPlan& plan, const std::string& key,
           const TrialReport& rep);

  /// Move the collected records and raw logs into `result`, and append
  /// each unit's checkpoint warning, in record order, to its warnings.
  void take(ExperimentResult& result);

  /// Why the journal stopped appending (empty while healthy/disabled).
  [[nodiscard]] const std::string& journal_warning() const {
    return journal_.degraded_reason();
  }

 private:
  Journal journal_;
  std::map<std::string, JournalEntry> journaled_;
  std::vector<RunRecord> records_;
  std::map<std::string, std::string> raw_logs_;
  std::vector<std::string> warnings_;
};

}  // namespace epgs::harness
