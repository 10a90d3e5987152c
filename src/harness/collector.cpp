#include "harness/collector.hpp"

#include <filesystem>
#include <utility>

namespace epgs::harness {

namespace {

/// Should a replayed entry with this outcome be re-run instead of kept?
/// Interrupted units always re-run (the sweep was cancelled under them);
/// other recoverable failures re-run only when the unit left a resumable
/// snapshot behind, so --resume continues it mid-kernel.
bool should_rerun(const JournalEntry& e, const SupervisorOptions& sup) {
  if (e.report.outcome == Outcome::kInterrupted) return true;
  if (sup.checkpoint_dir.empty()) return false;
  switch (e.report.outcome) {
    case Outcome::kTimeout:
    case Outcome::kCrash:
    case Outcome::kOomKilled:
    case Outcome::kTransient:
    case Outcome::kResourceExhausted:
      return std::filesystem::exists(
          CheckpointSession::path_for(sup.checkpoint_dir, e.key));
    default:
      return false;
  }
}

}  // namespace

RecordCollector::RecordCollector(const SupervisorOptions& sup,
                                 std::string fingerprint) {
  if (sup.journal_path.empty()) return;
  if (sup.resume && std::filesystem::exists(sup.journal_path)) {
    for (auto& e : replay_journal(sup.journal_path, fingerprint)) {
      // Last-wins: a resumed sweep that re-ran a unit journals it twice.
      journaled_[e.key] = std::move(e);
    }
    for (auto it = journaled_.begin(); it != journaled_.end();) {
      it = should_rerun(it->second, sup) ? journaled_.erase(it)
                                         : std::next(it);
    }
    journal_.open_append(sup.journal_path);
  } else {
    journal_.open_fresh(sup.journal_path, fingerprint);
  }
}

void RecordCollector::emit_replayed(const SweepPlan& plan) {
  const auto emit = [&](const std::string& key) {
    const auto it = journaled_.find(key);
    if (it != journaled_.end()) add(plan, key, it->second.report);
  };
  for (const SystemPlan& sp : plan.systems) {
    emit(sp.load_key);
    emit(sp.build_key);
    for (const PlannedTrial& t : sp.trials) emit(t.key);
  }
}

void RecordCollector::store(const SweepPlan& plan, const std::string& key,
                            const TrialReport& rep) {
  journal_.append(key, rep);
  add(plan, key, rep);
}

void RecordCollector::add(const SweepPlan& plan, const std::string& key,
                          const TrialReport& rep) {
  std::vector<RunRecord> recs = unit_records(plan, key, rep);
  // A rejected snapshot, an unusable directory or a failed save degrades
  // the unit's checkpointing, never its result: say so once per unit.
  if (!rep.warning.empty()) warnings_.push_back(key + ": " + rep.warning);
  if (rep.outcome == Outcome::kSuccess) {
    // unit_records has checked the key: its first field is the system.
    raw_logs_[key.substr(0, key.find('|'))] += rep.log.to_log_text();
  }
  records_.insert(records_.end(), std::make_move_iterator(recs.begin()),
                  std::make_move_iterator(recs.end()));
}

void RecordCollector::take(ExperimentResult& result) {
  result.records = std::move(records_);
  result.raw_logs = std::move(raw_logs_);
  result.warnings.insert(result.warnings.end(),
                         std::make_move_iterator(warnings_.begin()),
                         std::make_move_iterator(warnings_.end()));
}

}  // namespace epgs::harness
