// Experiment configuration: what easy-parallel-graph-*'s shell phases 2-3
// take as input ("given a synthetic graph size or a real-world graph file"
// and "given a graph and the number of threads").
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/edge_list.hpp"
#include "systems/common/system.hpp"

namespace epgs::harness {

/// kTc and kBc are this framework's extension (the paper's Section V
/// future work): "algorithms like triangle counting and betweenness
/// centrality are widely implemented but not supported by either
/// Graphalytics nor easy-parallel-graph-*".
enum class Algorithm { kBfs, kSssp, kPageRank, kCdlp, kLcc, kWcc, kTc, kBc };

[[nodiscard]] std::string_view algorithm_name(Algorithm a);
[[nodiscard]] Algorithm algorithm_from_name(std::string_view name);

/// Whether a system with these capabilities implements `alg`.
[[nodiscard]] bool algorithm_supported(const Capabilities& caps,
                                       Algorithm alg);

/// Which graph to run on. Kronecker mirrors the Graph500 generator the
/// paper uses for synthetic experiments; the *Like kinds are this repo's
/// stand-ins for the two real-world datasets; SnapFile accepts "any
/// network in the SNAP data format".
struct GraphSpec {
  enum class Kind { kKronecker, kPatentsLike, kDotaLike, kSnapFile };

  Kind kind = Kind::kKronecker;
  int scale = 16;            ///< Kronecker: 2^scale vertices
  int edgefactor = 16;       ///< Kronecker: edges per vertex
  double fraction = 0.02;    ///< dataset stand-ins: size vs the paper's
  std::string path;          ///< SnapFile: input path
  std::uint64_t seed = 20170517;

  /// Preprocessing applied by the homogenizer before any system sees the
  /// graph (identical input for everyone — the fairness the paper is
  /// about).
  bool symmetrize = true;       ///< Graph500 treats graphs as undirected
  bool deduplicate = true;
  bool add_weights = false;     ///< uniform integer weights for SSSP
  std::uint32_t max_weight = 255;

  [[nodiscard]] std::string name() const;
};

/// Generate/load the graph and apply the configured preprocessing.
EdgeList materialize(const GraphSpec& spec);

/// Dataset pipeline knobs. When enabled, the runner materializes the
/// graph through the content-addressed dataset cache (generation +
/// homogenization happen at most once per content fingerprint) and routes
/// every system's load through its homogenized native file, so "file
/// read" phases time real zero-copy I/O. Disabled (the default: no cache
/// dir) the runner stages edges from RAM.
struct DatasetOptions {
  std::string cache_dir;  ///< cache root; empty disables the pipeline
  /// How long to wait on another process's cache builder lock before
  /// degrading to uncached generation (see graph/cache_lock.hpp).
  double lock_timeout_seconds = 60.0;
  /// Refuse to publish a cache entry when the volume has fewer free bytes
  /// than this; 0 disables the preflight.
  std::uint64_t min_free_disk_bytes = 0;

  [[nodiscard]] bool enabled() const { return !cache_dir.empty(); }
};

/// Fault-tolerance knobs for the trial supervisor. The defaults disable
/// every mechanism, so an unconfigured sweep behaves like the original
/// unsupervised runner (modulo per-unit error containment).
struct SupervisorOptions {
  /// Wall-clock deadline per attempt; 0 disables it. Measured
  /// against std::chrono::steady_clock, never the system clock.
  double timeout_seconds = 0.0;
  /// Extra attempts granted to Outcome::kTransient failures only (and to
  /// snapshot-resumable timeouts/crashes/OOM kills; see supervisor.hpp).
  int max_retries = 0;
  /// Widen retry eligibility to *every* recoverable failure — timeouts,
  /// crashes, OOM kills, validation failures, resource exhaustion — even
  /// without a snapshot to resume from (a full deterministic restart).
  /// kConfig/kUnsupported stay terminal: they reproduce by construction.
  /// The chaos harness runs with this on: a fault that fires once (see
  /// fault::Plan::once_marker) plus a clean retry must reproduce the
  /// fault-free CSV byte-for-byte.
  bool retry_all_failures = false;
  /// Exponential backoff: base * 2^(attempt-1) * (1 + U[0,1)) seconds,
  /// clamped to backoff_max_seconds.
  double backoff_base_seconds = 0.05;
  double backoff_max_seconds = 2.0;
  /// fork() every unit into a throwaway child so aborts/corruption cannot
  /// take down the sweep. Children run single-threaded: libgomp's thread
  /// pool does not survive fork(), so a multi-threaded OpenMP region in
  /// the child would deadlock.
  bool isolate = false;
  /// Per-unit memory cap in bytes; 0 disables the governor. Isolated
  /// children get setrlimit(RLIMIT_AS) so an over-budget allocation fails
  /// with bad_alloc (-> Outcome::kOomKilled) instead of summoning the
  /// kernel OOM killer; every attempt additionally runs an RSS watchdog
  /// that polls /proc/self/statm and cancels the unit cooperatively.
  /// Note RLIMIT_AS counts the inherited (copy-on-write) parent address
  /// space too, so the practical floor is the parent's footprint.
  std::uint64_t mem_limit_bytes = 0;
  /// Append-only experiment journal; empty disables journaling.
  std::string journal_path;
  /// Replay an existing journal instead of truncating it: units it
  /// records as finished (any outcome) are emitted without re-execution.
  bool resume = false;
  /// Directory for mid-trial snapshots; empty disables checkpointing.
  /// With a directory set, kernels snapshot their iteration state at the
  /// configured cadence, killed/timed-out/OOM-killed attempts become
  /// retryable from the last snapshot, and --resume restores interrupted
  /// units mid-kernel instead of restarting them.
  std::string checkpoint_dir;
  /// Snapshot every N completed iterations; 0 (the default) disables the
  /// iteration cadence. Exact cadences are for tests and the kill-resume
  /// smoke — per-iteration fsyncs dwarf sub-millisecond iterations.
  int checkpoint_every_iterations = 0;
  /// Time-based cadence: snapshot at the first iteration boundary after
  /// this much wall time since the last save. The 0.25 s default bounds
  /// lost work per kill at a quarter second while staying well under the
  /// <5% overhead budget on fast kernels (see bench_checkpoint); 0
  /// disables. A final snapshot is still written whenever a deadline or
  /// interrupt cancels the unit, regardless of cadence.
  double checkpoint_every_seconds = 0.25;
  /// Crash-forensics report file for this unit; empty disables. Each
  /// fork-isolated attempt arms async-signal-safe handlers (see
  /// core/crash_report.hpp) that write signal, backtrace, active
  /// phase/iteration, and the armed fault plans here when the child dies
  /// on SEGV/ABRT/BUS/ILL/FPE. The parent parses the report, attaches
  /// the stack fingerprint to the trial report and journal, and the
  /// outcome table deduplicates identical crashes by it. Set per unit by
  /// the runner (from --crash-dir); meaningless without isolate.
  std::string crash_report_path;
  /// Sweep-level crash-report directory (--crash-dir). The runner derives
  /// each algorithm unit's crash_report_path from it (checkpoint-style
  /// sanitized key + FNV tag, extension ".crash"). Empty disables
  /// forensics. Deliberately NOT part of config_fingerprint: forensics
  /// is observability, not identity.
  std::string crash_report_dir;
};

struct ExperimentConfig {
  GraphSpec graph;
  std::vector<std::string> systems;      ///< names from the registry
  std::vector<Algorithm> algorithms;
  int num_roots = 32;   ///< roots for BFS/SSSP; plain trials for the rest
  int threads = 0;      ///< 0 = all available
  std::uint64_t root_seed = 2;
  PageRankParams pagerank;
  int cdlp_iterations = 10;
  /// Re-time data structure construction before every trial for systems
  /// that support it (except Graph500, which "only constructs its graph
  /// once" — Fig 2); gives the construction box plots their samples.
  bool reconstruct_per_trial = true;
  /// Validate every result against the serial reference oracles.
  bool validate = false;
  /// Timeout / retry / isolation / journal configuration.
  SupervisorOptions supervisor;
  /// Dataset cache / zero-copy data path configuration.
  DatasetOptions dataset;
};

/// Pick `count` distinct roots with total degree > min_degree (the paper
/// follows the Graph500 in requiring degree greater than 1), seeded and
/// deterministic. Falls back to lower-degree vertices if the graph cannot
/// supply enough.
std::vector<vid_t> select_roots(const EdgeList& el, int count,
                                std::uint64_t seed, eid_t min_degree = 1);

}  // namespace epgs::harness
