// Plan stage of the runner: enumerate every supervised unit of a sweep —
// (system, algorithm, trial) plus the per-system load/build units — and
// resolve the decisions that used to be interleaved with execution:
// which data path feeds each system, which units a resumed journal
// already covers, and which systems rebuild per trial.
//
// The plan is pure data; executing it (runner.cpp) and collecting its
// records (collector.hpp) are separate stages. unit_records turns a
// finished unit's report into its rows, for live and replayed units
// alike.
#pragma once

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "graph/homogenizer.hpp"
#include "harness/records.hpp"
#include "harness/supervisor.hpp"

namespace epgs::harness {

/// How graph data reaches the systems.
enum class DataPath {
  kInMemory,    ///< legacy: stage the generated EdgeList from RAM
  kNativeFile,  ///< zero-copy pipeline: each system loads its native file
};

/// Unit keys read "<system>|<unit>|<trial>": <unit> is an algorithm name
/// with the root index as trial, or "build", "load" or "configure" with
/// trial -1 for a system's build-once, file-read and configuration units.

/// One (system, algorithm, trial) unit.
struct PlannedTrial {
  Algorithm alg = Algorithm::kBfs;
  std::string alg_name;
  int trial = 0;
  std::string key;        ///< journal unit key "system|alg|trial"
  bool replayed = false;  ///< journal already holds this unit
};

/// Everything decided about one system before execution starts.
struct SystemPlan {
  std::string system;
  /// Non-empty when the registry rejected the name: the sweep emits one
  /// config-failure record and skips the system.
  std::string config_error;
  bool separate_construction = true;
  /// Re-time construction before every trial (separate-construction
  /// systems except Graph500, which "only constructs its graph once").
  bool rebuild_per_trial = false;
  std::string build_key;       ///< "system|build|-1" build-once unit key
  bool build_replayed = false;
  std::string load_key;        ///< "system|load|-1" file-read unit key
  bool load_replayed = false;
  std::string config_key;      ///< "system|configure|-1" config failure
  /// Native-format file for the kNativeFile path; empty in RAM mode.
  std::filesystem::path native_file;
  std::vector<PlannedTrial> trials;  ///< replayed units included
};

struct SweepPlan {
  std::string dataset;
  int threads = 0;
  DataPath data_path = DataPath::kInMemory;
  std::vector<SystemPlan> systems;
};

/// Build the plan. `files` selects the data path: nullptr plans the
/// legacy in-memory sweep; a homogenized dataset plans native-file loads.
/// `journaled` (from a replayed journal) marks units that must not re-run.
SweepPlan plan_sweep(const ExperimentConfig& cfg,
                     const HomogenizedDataset* files,
                     const std::map<std::string, JournalEntry>& journaled);

/// The rows one finished unit contributes: a success's phases, parsed
/// back from its log text (the AWK idiom), or one DNF row naming the
/// phase that failed, with the elapsed time and the error. Every row
/// carries the unit's retry, resume and crash provenance as extras. Live
/// units and --resume replay both build their rows here, so a replayed
/// row equals the row its unit produced live, timeline included.
std::vector<RunRecord> unit_records(const SweepPlan& plan,
                                    std::string_view key,
                                    const TrialReport& report);

}  // namespace epgs::harness
