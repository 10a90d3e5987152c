// The experiment runner: phases 3 (run) and 4 (parse logs into CSV) of
// easy-parallel-graph-*.
//
// The runner is split into three stages:
//
//   plan    — sweep_plan.hpp enumerates every (system, algorithm, trial)
//             unit and resolves data-path / cache / journal-replay /
//             rebuild decisions up front;
//   execute — run_experiment drives each planned unit through the trial
//             supervisor, reading everything back by *serialising each
//             system's phase log to text and parsing it* (the original
//             tool's AWK idiom);
//   collect — collector.hpp journals finished units and accumulates the
//             flat phase records; records.hpp renders them as CSV.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/phase_log.hpp"
#include "harness/experiment.hpp"
#include "harness/records.hpp"
#include "systems/common/system.hpp"

namespace epgs::harness {

/// Run the experiment. Throws EpgsError on configuration errors; systems
/// lacking a requested algorithm are skipped for that algorithm (the
/// paper's plots simply omit those bars). When cfg.dataset is enabled the
/// run goes through the zero-copy dataset pipeline: the graph is
/// materialized once into the content-addressed cache and every
/// separate-construction system loads its own native file (so "file read"
/// times real I/O).
ExperimentResult run_experiment(const ExperimentConfig& cfg);

/// A system built on one staged dataset and kept for the next run on it,
/// with the phases that staged and built it (seconds zeroed). A run that
/// reuses it skips those phases but still writes their rows, with the
/// paid unit's counters and `seconds` 0: its records name every phase a
/// fresh run would, and only the timing says what this run paid for.
struct BuiltSystem {
  std::string name;  ///< registry name
  int threads = 0;   ///< the team size it was built under
  std::unique_ptr<System> system;  ///< built; its staged edges released
  std::optional<PhaseEntry> file_read;  ///< native-file loads only
  PhaseEntry build;
};

/// Built systems kept between runs on one staged dataset: the serve
/// layer holds one per resident graph (src/serve/graph_session.hpp), and
/// a system leaves it with that graph. Runs take and return systems from
/// one thread; size() and bytes() may be read from any.
class SystemPool {
 public:
  /// Remove and return the system kept for (name, threads), if any.
  [[nodiscard]] std::optional<BuiltSystem> take(std::string_view name,
                                                int threads);
  void put(BuiltSystem built);
  void clear();

  [[nodiscard]] std::size_t size() const;
  /// The kept systems' footprint: the sum of their build rows' `bytes`.
  [[nodiscard]] std::uint64_t bytes() const;

 private:
  mutable std::mutex mutex_;
  std::vector<BuiltSystem> systems_;
};

/// A dataset the caller already holds in RAM. The serve layer keeps
/// graphs warm across requests (see src/serve/graph_session.hpp) and runs
/// each request through this overload, skipping the generate/load phase
/// that dominates one-shot sweeps. Systems borrow `edges` instead of
/// copying it, so it must outlive the call and every system in `pool`;
/// `files`, when non-null, routes separate-construction systems through
/// their homogenized native files exactly like a cache hit would.
struct StagedDataset {
  const EdgeList* edges = nullptr;
  const HomogenizedDataset* files = nullptr;  ///< null = in-RAM data path
  bool cache_hit = false;  ///< reported as ExperimentResult::dataset_cache_hit
  /// Systems built by earlier runs on this same dataset. A run takes its
  /// system from here when one was kept for its (system, threads), and
  /// hands back each system it holds built in-process after every one of
  /// its units succeeded. Null (every sweep) builds afresh, keeps nothing.
  SystemPool* pool = nullptr;
};

/// Run the experiment on a pre-staged dataset: identical planning,
/// supervision, and record collection to run_experiment(cfg), minus the
/// materialize step. Apart from the timing columns, the records are
/// byte-identical to what a cold run of the same config would produce —
/// the property the serve end-to-end tests pin down.
ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const StagedDataset& staged);

}  // namespace epgs::harness
