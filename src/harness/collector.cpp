#include "harness/collector.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <utility>

#include "graph/dataset_cache.hpp"

namespace epgs::harness {

namespace {

/// Sidecar filename: a human-readable slice of the fingerprint plus its
/// FNV-1a tag (content_hash_hex), so distinct configs sharing a trace
/// directory land in distinct files and a resumed sweep finds its own.
std::string trace_file_name(const std::string& fingerprint) {
  std::string name;
  for (const char c : fingerprint) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '-' || c == '.';
    name.push_back(safe ? c : '_');
    if (name.size() >= 48) break;
  }
  return "itertrace-" + name + "-" + content_hash_hex(fingerprint) +
         ".jsonl";
}

/// Minimal JSON string escape: quotes, backslashes, control bytes.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

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
                                 std::string fingerprint,
                                 const std::string& iter_trace_dir) {
  if (!iter_trace_dir.empty()) {
    try {
      std::filesystem::create_directories(iter_trace_dir);
      trace_path_ = std::filesystem::path(iter_trace_dir) /
                    trace_file_name(fingerprint);
      const auto mode = (sup.resume && std::filesystem::exists(trace_path_))
                            ? fsx::OutStream::Mode::kAppend
                            : fsx::OutStream::Mode::kTruncate;
      trace_ = std::make_unique<fsx::OutStream>(trace_path_, mode);
    } catch (const std::exception& e) {
      trace_warning_ = std::string("iter-trace sidecar unusable (") +
                       e.what() + "); telemetry disabled";
      trace_.reset();
    }
  }
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
    if (it != journaled_.end()) add(unit_records(plan, key, it->second.report));
  };
  for (const SystemPlan& sp : plan.systems) {
    emit(sp.load_key);
    emit(sp.build_key);
    for (const PlannedTrial& t : sp.trials) emit(t.key);
  }
}

void RecordCollector::store(const std::string& key,
                            std::vector<RunRecord> recs,
                            const TrialReport& rep) {
  journal_.append(key, rep);
  write_timelines(recs);
  add(std::move(recs));
}

void RecordCollector::add(std::vector<RunRecord> recs) {
  records_.insert(records_.end(), std::make_move_iterator(recs.begin()),
                  std::make_move_iterator(recs.end()));
}

void RecordCollector::write_timelines(const std::vector<RunRecord>& recs) {
  if (!trace_) return;
  try {
    std::ostringstream os;
    os.precision(17);
    for (const RunRecord& r : recs) {
      for (const IterRecord& row : r.timeline) {
        os << "{\"dataset\":\"" << json_escape(r.dataset)
           << "\",\"system\":\"" << json_escape(r.system)
           << "\",\"algorithm\":\"" << json_escape(r.algorithm)
           << "\",\"trial\":" << r.trial << ",\"phase\":\""
           << json_escape(r.phase) << "\",\"iter\":" << row.iter
           << ",\"seconds\":" << row.seconds
           << ",\"frontier\":" << row.frontier << ",\"edges\":" << row.edges
           << ",\"residual\":";
        if (row.has_residual()) {
          os << row.residual;
        } else {
          os << "null";
        }
        os << "}\n";
      }
    }
    const std::string text = os.str();
    if (text.empty()) return;
    (*trace_) << text;
    trace_->sync_now();
  } catch (const std::exception& e) {
    trace_warning_ = std::string("iter-trace sidecar write failed (") +
                     e.what() + "); telemetry stopped";
    trace_.reset();
  }
}

}  // namespace epgs::harness
