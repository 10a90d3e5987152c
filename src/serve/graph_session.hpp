// Warm-graph residency for the query server.
//
// One-shot `epg run` sweeps pay graph generation/load on every invocation
// — the per-phase cost the paper shows dominating end-to-end time for
// separate-construction systems. The GraphStore keeps materialized
// datasets resident between requests, keyed by the same content
// fingerprint as the on-disk dataset cache (spec_fingerprint), so a
// repeat request skips straight to construction + kernel. Each graph also
// keeps the systems requests built on it (harness::SystemPool), so a
// repeat (system, threads) skips construction too and pays its kernel.
//
// Residency is budgeted: --max-resident-bytes caps the accounted bytes of
// resident edge lists and their built systems, and crossing the budget
// evicts least-recently-used graphs, systems included (never one
// currently staged into an executing request — those are kept alive by
// shared_ptr refcounts and evicted lazily once the request finishes).
// The companion process-level answer ("what does the kernel think we
// weigh") comes from the resource governor's RSS accounting
// (core/proc_stats.hpp) and is reported alongside in stats.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/dataset_pipeline.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "serve/metrics.hpp"

namespace epgs::serve {

/// A materialized dataset held warm. Immutable once published, except for
/// its pool of built systems: requests share it via shared_ptr, so
/// eviction can never free edges under a running kernel.
struct ResidentGraph {
  harness::GraphSpec spec;
  std::string fingerprint;
  std::string name;
  EdgeList edges;
  /// Native per-system files when the dataset cache is enabled; empty
  /// optional = in-RAM data path.
  std::optional<HomogenizedDataset> files;
  bool from_cache_hit = false;
  std::uint64_t bytes = 0;         ///< accounted footprint of `edges`
  double load_seconds = 0.0;       ///< cold materialization cost
  /// Systems built on `edges` by earlier requests. Only the scheduler's
  /// worker takes and returns them; stats reads the pool's bytes under
  /// its own lock. Declared last, so it is freed before the edges.
  mutable harness::SystemPool systems;
};

/// Accounted footprint of an edge list: what the LRU budget charges.
[[nodiscard]] std::uint64_t edge_list_bytes(const EdgeList& el);

class GraphStore {
 public:
  /// `dataset`: when enabled, cold loads go through the content-addressed
  /// on-disk cache (prepare_dataset) so a server restart finds warm files
  /// even though RAM residency is gone. `max_resident_bytes` of 0 means
  /// unbounded.
  GraphStore(harness::DatasetOptions dataset,
             std::uint64_t max_resident_bytes, Metrics& metrics);

  /// Get-or-load the graph for `spec`. A warm hit bumps LRU recency; a
  /// cold load materializes, accounts the bytes, and LRU-evicts other
  /// unreferenced graphs until the budget holds again. Throws EpgsError
  /// (e.g. unreadable snap file) on load failure — the store stays
  /// consistent and later requests can retry.
  [[nodiscard]] std::shared_ptr<const ResidentGraph> acquire(
      const harness::GraphSpec& spec);

  /// Re-apply the budget after a request returned built systems to
  /// `graph`'s pool: evict other unreferenced graphs, least recently used
  /// first, and if that is not enough, drop `graph`'s systems.
  void charge_systems(const ResidentGraph& graph);

  /// Residency rows for the stats snapshot.
  [[nodiscard]] std::vector<GraphResidency> residency() const;

  /// Sum of accounted bytes currently resident: edge lists and built
  /// systems.
  [[nodiscard]] std::uint64_t resident_bytes() const;

  [[nodiscard]] std::uint64_t max_resident_bytes() const {
    return max_resident_bytes_;
  }

 private:
  struct Slot {
    std::shared_ptr<const ResidentGraph> graph;
    std::uint64_t hits = 0;
    std::uint64_t last_used = 0;  ///< LRU tick
  };

  /// Evict LRU unreferenced graphs until the budget holds; `keep` is the
  /// fingerprint never evicted (the graph just acquired or run). Returns
  /// whether the budget holds. Caller holds the lock.
  bool evict_to_budget(const std::string& keep);
  [[nodiscard]] std::uint64_t total_bytes() const;  ///< caller holds lock

  harness::DatasetOptions dataset_;
  std::uint64_t max_resident_bytes_;
  Metrics& metrics_;

  mutable std::mutex mutex_;
  std::vector<std::pair<std::string, Slot>> slots_;  ///< fingerprint-keyed
  std::uint64_t tick_ = 0;
};

}  // namespace epgs::serve
