#include "harness/sweep_plan.hpp"

#include <memory>

#include "core/parallel.hpp"
#include "core/text_scan.hpp"
#include "systems/common/registry.hpp"

namespace epgs::harness {
namespace {

constexpr std::string_view kBuildUnit = "build";
constexpr std::string_view kLoadUnit = "load";
constexpr std::string_view kConfigureUnit = "configure";

std::string unit_key(const std::string& system, std::string_view unit,
                     int trial) {
  return system + "|" + std::string(unit) + "|" + std::to_string(trial);
}

}  // namespace

SweepPlan plan_sweep(const ExperimentConfig& cfg,
                     const HomogenizedDataset* files,
                     const std::map<std::string, JournalEntry>& journaled) {
  SweepPlan plan;
  plan.dataset = cfg.graph.name();
  plan.threads = cfg.threads > 0 ? cfg.threads : max_threads();
  plan.data_path =
      files != nullptr ? DataPath::kNativeFile : DataPath::kInMemory;

  for (const auto& system_name : cfg.systems) {
    SystemPlan sp;
    sp.system = system_name;
    sp.config_key = unit_key(system_name, kConfigureUnit, -1);

    std::unique_ptr<System> sys;
    try {
      sys = make_system(system_name);
    } catch (const std::exception& e) {
      // A bad name fails this system only; the sweep continues.
      sp.config_error = e.what();
      plan.systems.push_back(std::move(sp));
      continue;
    }

    const Capabilities caps = sys->capabilities();
    sp.separate_construction = caps.separate_construction;
    sp.rebuild_per_trial = cfg.reconstruct_per_trial &&
                           caps.separate_construction &&
                           sys->name() != "Graph500";
    sp.build_key = unit_key(system_name, kBuildUnit, -1);
    sp.build_replayed = journaled.count(sp.build_key) != 0;
    sp.load_key = unit_key(system_name, kLoadUnit, -1);
    sp.load_replayed = journaled.count(sp.load_key) != 0;
    if (files != nullptr) {
      sp.native_file = files->path(sys->native_format());
    }

    for (const Algorithm alg : cfg.algorithms) {
      if (!algorithm_supported(caps, alg)) {
        continue;  // the paper's plots just omit the bar
      }
      const std::string alg_name(algorithm_name(alg));
      for (int trial = 0; trial < cfg.num_roots; ++trial) {
        PlannedTrial t;
        t.alg = alg;
        t.alg_name = alg_name;
        t.trial = trial;
        t.key = unit_key(system_name, alg_name, trial);
        t.replayed = journaled.count(t.key) != 0;
        sp.trials.push_back(std::move(t));
      }
    }
    plan.systems.push_back(std::move(sp));
  }
  return plan;
}

std::vector<RunRecord> unit_records(const SweepPlan& plan,
                                    std::string_view key,
                                    const TrialReport& report) {
  const std::size_t first = key.find('|');
  const std::size_t last = key.rfind('|');
  EPGS_CHECK(first != std::string_view::npos && first < last,
             "malformed unit key: '" + std::string(key) + "'");
  const std::string_view unit = key.substr(first + 1, last - first - 1);
  const bool per_system =
      unit == kBuildUnit || unit == kLoadUnit || unit == kConfigureUnit;

  RunRecord base;
  base.dataset = plan.dataset;
  base.system = std::string(key.substr(0, first));
  base.algorithm = per_system ? "" : std::string(unit);
  base.threads = plan.threads;
  base.trial = text::parse<int>(key.substr(last + 1), "unit key", "trial", 0);
  base.outcome = report.outcome;
  std::map<std::string, std::string>& provenance = base.extra;
  if (!report.message.empty()) provenance["error"] = report.message;
  if (report.attempts > 1) {
    provenance["attempts"] = std::to_string(report.attempts);
    provenance["last_failure"] = std::string(outcome_name(report.last_failure));
  }
  // A unit that crashed, then recovered on retry, keeps the forensics of
  // the crash it survived. These extras have no CSV column, so chaos
  // byte-identity is unaffected.
  if (!report.crash_fingerprint.empty()) {
    provenance["crash_fingerprint"] = report.crash_fingerprint;
  }
  if (!report.crash_report_path.empty()) {
    provenance["crash_report"] = report.crash_report_path;
  }
  if (report.resumed_from_iter >= 0) {
    provenance["resumed_from_iter"] = std::to_string(report.resumed_from_iter);
  }

  std::vector<RunRecord> recs;
  if (report.outcome != Outcome::kSuccess) {
    base.phase = unit == kBuildUnit       ? phase::kBuild
                 : unit == kLoadUnit      ? phase::kFileRead
                 : unit == kConfigureUnit ? kConfigureUnit
                                          : phase::kAlgorithm;
    base.seconds = report.elapsed_seconds;
    recs.push_back(std::move(base));
    return recs;
  }
  const PhaseLog parsed = PhaseLog::parse_log_text(report.log.to_log_text());
  for (const PhaseEntry& e : parsed.entries()) {
    RunRecord rec = base;
    rec.phase = e.name;
    rec.seconds = e.seconds;
    rec.work = e.work;
    rec.extra = e.extra;
    for (const auto& [k, v] : provenance) rec.extra[k] = v;
    rec.timeline = e.timeline;
    recs.push_back(std::move(rec));
  }
  return recs;
}

}  // namespace epgs::harness
