// The shared kernel runtime (KernelRun) and its per-iteration telemetry:
// timeline rows attach to the "run algorithm" phase on every system,
// round-trip through the text log grammar and the fork-isolation pipe,
// render as the --iter-trace JSONL, and every capability-advertised
// iterative kernel is checkpointable (cancelled mid-kernel -> resumes
// from the snapshot to the uninterrupted result) while single-pass
// kernels stay snapshot-free.
#include "systems/common/kernel_run.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/cancellation.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "gen/kronecker.hpp"
#include "graph/transforms.hpp"
#include "harness/analysis.hpp"
#include "harness/experiment.hpp"
#include "harness/runner.hpp"
#include "systems/common/fault_injection.hpp"
#include "systems/common/registry.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

const char* const kAllSystems[] = {"GAP",      "Graph500", "GraphBIG",
                                   "GraphMat", "Ligra",    "PowerGraph"};

/// Build `system` over `el` and return it ready to run.
std::unique_ptr<System> built(const std::string& system,
                              const EdgeList& el) {
  auto sys = make_system(system);
  sys->set_edges(el);
  sys->build();
  return sys;
}

/// The "run algorithm" phase entry the last kernel logged.
const PhaseEntry& algorithm_entry(const System& sys) {
  const auto& entries = sys.log().entries();
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    if (it->name == phase::kAlgorithm) return *it;
  }
  throw EpgsError("no run-algorithm phase logged");
}

/// Timeline invariant shared by every kernel: dense 0-based iteration
/// indices and non-negative per-iteration times.
void expect_dense_timeline(const std::vector<IterRecord>& tl,
                           const std::string& what) {
  for (std::size_t i = 0; i < tl.size(); ++i) {
    EXPECT_EQ(tl[i].iter, i) << what << ": timeline indices not dense";
    EXPECT_GE(tl[i].seconds, 0.0) << what;
  }
}

// --- telemetry rows ------------------------------------------------------

TEST(KernelRunTelemetry, PageRankTimelineMatchesIterationsEverySystem) {
  const EdgeList el = test::line_graph(96);
  for (const std::string system :
       {"GAP", "Ligra", "GraphMat", "GraphBIG", "PowerGraph"}) {
    auto sys = built(system, el);
    const auto r = sys->pagerank();
    const auto& entry = algorithm_entry(*sys);
    ASSERT_EQ(entry.timeline.size(),
              static_cast<std::size_t>(r.iterations))
        << system << ": one telemetry row per iteration";
    expect_dense_timeline(entry.timeline, system);
    // Systems with an epsilon stopping criterion report the L1 residual
    // every iteration. GraphMat stops when no rank changes (or its ranks
    // repeat those of two iterations back) and has no residual notion;
    // its frontier is the count of ranks the previous iteration changed.
    const bool expects_residual = system != "GraphMat";
    for (const auto& row : entry.timeline) {
      EXPECT_EQ(row.has_residual(), expects_residual) << system;
    }
    if (system == "GraphMat") {
      EXPECT_EQ(entry.timeline.front().frontier, el.num_vertices);
      EXPECT_LT(entry.timeline.back().frontier, el.num_vertices);
    }
  }
}

TEST(KernelRunTelemetry, BfsTimelineTracksFrontierAndEdges) {
  ThreadScope scope(1);
  const EdgeList el = test::line_graph(64);
  for (const std::string system :
       {"GAP", "Graph500", "Ligra", "GraphMat", "GraphBIG"}) {
    auto sys = built(system, el);
    (void)sys->bfs(0);
    const auto& tl = algorithm_entry(*sys).timeline;
    ASSERT_GE(tl.size(), 3u) << system;
    expect_dense_timeline(tl, system);
    std::uint64_t edges = 0;
    for (const auto& row : tl) {
      EXPECT_FALSE(row.has_residual()) << system << ": BFS has no residual";
      edges += row.edges;
    }
    EXPECT_GT(edges, 0u) << system << ": no edge deltas recorded";
  }
}

TEST(KernelRunTelemetry, TimelineRoundTripsThroughLogText) {
  auto sys = built("GAP", test::line_graph(96));
  (void)sys->pagerank();
  const auto& before = algorithm_entry(*sys).timeline;
  ASSERT_FALSE(before.empty());

  const PhaseLog parsed = PhaseLog::parse_log_text(sys->log().to_log_text());
  const auto entry = parsed.find(phase::kAlgorithm);
  ASSERT_TRUE(entry.has_value());
  ASSERT_EQ(entry->timeline.size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    const auto& a = before[i];
    const auto& b = entry->timeline[i];
    EXPECT_EQ(b.iter, a.iter);
    EXPECT_EQ(b.frontier, a.frontier);
    EXPECT_EQ(b.edges, a.edges);
    EXPECT_NEAR(b.seconds, a.seconds, 1e-6 + 1e-6 * a.seconds);
    ASSERT_EQ(b.has_residual(), a.has_residual());
    if (a.has_residual()) {
      EXPECT_NEAR(b.residual, a.residual,
                  1e-6 + 1e-6 * std::abs(a.residual));
    }
  }
}

// --- checkpointable-kernel sweep -----------------------------------------
//
// The regression bar behind the KernelRun refactor: every iterative
// kernel a system advertises must leave a resumable snapshot when
// cancelled mid-kernel and continue from it to the same result, bit for
// bit, and the same work counters as an uninterrupted run — including
// the kernels that previously only polled bare cancellation (Ligra SSSP
// and friends). One test per (system, input), so `ctest -j` spreads the
// sweep.

/// The bytes of `v`, so results compare bit for bit.
template <typename T>
std::string bytes_of(const std::vector<T>& v) {
  return std::string(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(T));
}

struct SweepInput {
  std::string name;
  EdgeList el;
  vid_t root;
};

/// "line96": a long line, many iterations per kernel. "kron10": a
/// Kronecker s10 graph, dense enough for GAP BFS's bottom-up frontier.
/// Both weighted.
SweepInput sweep_input(const std::string& name) {
  if (name == "line96") {
    return {name, test::line_graph(96, /*weighted=*/true), 0};
  }
  gen::KroneckerParams p;
  p.scale = 10;
  EdgeList kron = with_random_weights(dedupe(symmetrize(gen::kronecker(p))),
                                      /*seed=*/7, /*max_weight=*/15);
  const vid_t root = harness::select_roots(kron, 1, /*seed=*/1)[0];
  return {name, std::move(kron), root};
}

class KernelCheckpointSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epgs_krun_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::disarm_cancel_at_iteration();
    fs::remove_all(dir_);
  }

  [[nodiscard]] CheckpointConfig config(const std::string& key) const {
    CheckpointConfig cfg;
    cfg.dir = dir_.string();
    cfg.unit_key = key;
    cfg.fingerprint = "fp";
    cfg.every_iterations = 1;
    return cfg;
  }

  /// Run `alg` (which returns its result's bytes) uninterrupted; then for
  /// each kill point the kernel reaches, cancel it at that completed
  /// iteration, assert a snapshot was left, resume on a fresh instance,
  /// and require the resume to start from the snapshot and to end with
  /// the uninterrupted result and work counters. The kill points are
  /// iterations 1 and 2, or with `at_tail` the last two boundaries.
  template <typename Alg>
  void expect_kill_resume(const std::string& system, const SweepInput& in,
                          const std::string& alg_name, Alg&& alg,
                          bool at_tail = false) {
    const std::string kernel = system + "|" + alg_name + "|" + in.name;
    std::string base;
    WorkStats base_work;
    std::size_t boundaries = 0;
    {
      auto sys = built(system, in.el);
      base = alg(*sys);
      base_work = algorithm_entry(*sys).work;
      boundaries = algorithm_entry(*sys).timeline.size();
    }
    ASSERT_GT(boundaries, 1u) << kernel << " ends before the first kill point";
    const std::vector<std::uint64_t> kills =
        at_tail ? std::vector<std::uint64_t>{boundaries - 1, boundaries - 2}
                : std::vector<std::uint64_t>{1, 2};
    for (const std::uint64_t kill : kills) {
      if (boundaries <= kill) continue;  // the kernel ends before `kill`
      const std::string key = kernel + "|" + std::to_string(kill);
      {
        auto sys = built(system, in.el);
        CancellationToken token;
        sys->set_cancellation(&token);
        CheckpointSession session(config(key));
        sys->set_checkpoint_session(&session);
        fault::arm_cancel_at_iteration({system, kill});
        EXPECT_THROW(alg(*sys), CancelledError) << key;
        fault::disarm_cancel_at_iteration();
        session.detach();
        EXPECT_TRUE(session.snapshot_exists())
            << key << " left no snapshot behind";
      }
      auto sys = built(system, in.el);
      CheckpointSession session(config(key));
      sys->set_checkpoint_session(&session);
      std::string resumed;
      EXPECT_NO_THROW(resumed = alg(*sys)) << key;
      EXPECT_EQ(session.resumed_from(), static_cast<std::int64_t>(kill))
          << key << " did not resume";
      EXPECT_FALSE(session.snapshot_exists())
          << key << " must delete the snapshot after completing";
      EXPECT_TRUE(resumed == base)
          << key << ": resumed result is not bit-identical";
      const WorkStats& work = algorithm_entry(*sys).work;
      EXPECT_EQ(work.edges_processed, base_work.edges_processed) << key;
      EXPECT_EQ(work.vertex_updates, base_work.vertex_updates) << key;
      EXPECT_EQ(work.bytes_touched, base_work.bytes_touched) << key;
    }
  }

  fs::path dir_;
};

TEST_P(KernelCheckpointSweep, EveryAdvertisedIterativeKernelResumes) {
  // Single-threaded: only the 1-thread BFS tree and floating-point
  // accumulation orders are deterministic across runs.
  ThreadScope scope(1);
  const std::string& system = std::get<0>(GetParam());
  const SweepInput in = sweep_input(std::get<1>(GetParam()));
  const vid_t root = in.root;
  const Capabilities caps = make_system(system)->capabilities();
  if (caps.bfs) {
    expect_kill_resume(system, in, "bfs", [root](System& s) {
      return bytes_of(s.bfs(root).parent);
    });
  }
  if (caps.sssp) {
    expect_kill_resume(system, in, "sssp", [root](System& s) {
      return bytes_of(s.sssp(root).dist);
    });
  }
  if (caps.pagerank) {
    expect_kill_resume(system, in, "pagerank", [](System& s) {
      const PageRankResult r = s.pagerank();
      return bytes_of(r.rank) + "|" + std::to_string(r.iterations);
    });
  }
  if (caps.cdlp) {
    expect_kill_resume(system, in, "cdlp", [](System& s) {
      const CdlpResult r = s.cdlp();
      return bytes_of(r.label) + "|" + std::to_string(r.iterations);
    });
  }
  if (caps.wcc) {
    expect_kill_resume(system, in, "wcc", [](System& s) {
      return bytes_of(s.wcc().component);
    });
  }
  if (caps.bc) {
    expect_kill_resume(system, in, "bc", [root](System& s) {
      return bytes_of(s.bc(root).dependency);
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    PerSystem, KernelCheckpointSweep,
    ::testing::Combine(::testing::ValuesIn(std::vector<std::string>(
                           std::begin(kAllSystems), std::end(kAllSystems))),
                       ::testing::Values(std::string("line96"),
                                         std::string("kron10"))),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

TEST_F(KernelCheckpointSweep, GraphMatPageRankResumesInsideItsCycleTail) {
  // GraphMat's PageRank stops when its ranks repeat those of two
  // iterations back. A kill one boundary before that stop resumes with
  // the cycle test due at once, so the snapshot must carry the older
  // vector too, or the resume runs on and ends an iteration late.
  ThreadScope scope(1);
  const SweepInput in = sweep_input("kron10");
  const PageRankParams params;
  {
    auto sys = built("GraphMat", in.el);
    ASSERT_LT(sys->pagerank(params).iterations, params.max_iterations)
        << "the kernel must stop before the cap for a tail to exist";
  }
  expect_kill_resume(
      "GraphMat", in, "pagerank",
      [&params](System& s) {
        const PageRankResult r = s.pagerank(params);
        return bytes_of(r.rank) + "|" + std::to_string(r.iterations);
      },
      /*at_tail=*/true);
}

TEST_F(KernelCheckpointSweep, SinglePassKernelsLeaveNoSnapshot) {
  // LCC and TC are single-pass: they run to completion under a session
  // without registering iteration state or leaving snapshots behind.
  const EdgeList el = test::line_graph(32);
  for (const std::string system : kAllSystems) {
    const Capabilities caps = make_system(system)->capabilities();
    for (const bool is_lcc : {true, false}) {
      if (is_lcc ? !caps.lcc : !caps.tc) continue;
      const std::string key = system + (is_lcc ? "|lcc" : "|tc");
      auto sys = built(system, el);
      CheckpointSession session(config(key));
      sys->set_checkpoint_session(&session);
      if (is_lcc) {
        EXPECT_NO_THROW((void)sys->lcc()) << key;
      } else {
        EXPECT_NO_THROW((void)sys->tc()) << key;
      }
      EXPECT_FALSE(session.snapshot_exists()) << key;
    }
  }
}

// --- --iter-trace plumbing ----------------------------------------------

harness::ExperimentConfig trace_config() {
  harness::ExperimentConfig cfg;
  cfg.graph.kind = harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.graph.edgefactor = 4;
  cfg.systems = {"GAP"};
  cfg.algorithms = {harness::Algorithm::kPageRank};
  cfg.num_roots = 2;
  cfg.threads = 2;
  return cfg;
}

TEST(IterTrace, TimelinesReachRunRecords) {
  const auto result = harness::run_experiment(trace_config());
  int kernel_records = 0;
  for (const auto& r : result.records) {
    if (r.phase != phase::kAlgorithm || r.outcome != Outcome::kSuccess) {
      continue;
    }
    ++kernel_records;
    ASSERT_FALSE(r.timeline.empty()) << r.system << "/" << r.algorithm;
    EXPECT_EQ(std::to_string(r.timeline.size()), r.extra.at("iterations"));
  }
  EXPECT_EQ(kernel_records, 2);
}

TEST(IterTrace, TimelinesSurviveForkIsolation) {
  auto cfg = trace_config();
  // BFS rows carry a NaN residual, so this also proves the pipe grammar
  // round-trips "nan" (istream num_get rejects it; the parser must not).
  cfg.algorithms = {harness::Algorithm::kPageRank, harness::Algorithm::kBfs};
  cfg.supervisor.isolate = true;
  const auto result = harness::run_experiment(cfg);
  int kernel_records = 0;
  for (const auto& r : result.records) {
    if (r.phase != phase::kAlgorithm || r.outcome != Outcome::kSuccess) {
      continue;
    }
    ++kernel_records;
    ASSERT_FALSE(r.timeline.empty())
        << r.system << "/" << r.algorithm
        << ": timeline lost crossing the isolation pipe";
    const auto iters = r.extra.find("iterations");
    if (iters != r.extra.end()) {  // BFS results report no iteration count
      EXPECT_EQ(std::to_string(r.timeline.size()), iters->second);
    }
    if (r.algorithm == "BFS") {
      EXPECT_FALSE(r.timeline.front().has_residual());
    }
  }
  EXPECT_EQ(kernel_records, 4) << "an isolated unit was misclassified";
}

TEST(IterTrace, SidecarJsonlMatchesIterationCounts) {
  const auto result = harness::run_experiment(trace_config());
  EXPECT_TRUE(result.warnings.empty()) << result.warnings.front();

  std::size_t expected_rows = 0;
  for (const auto& r : result.records) expected_rows += r.timeline.size();
  ASSERT_GT(expected_rows, 0u);

  std::istringstream in(harness::timelines_to_jsonl(result.records));
  std::size_t rows = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++rows;
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"system\":\"GAP\""), std::string::npos);
    EXPECT_NE(line.find("\"iter\":"), std::string::npos);
    EXPECT_NE(line.find("\"residual\":"), std::string::npos);
  }
  EXPECT_EQ(rows, expected_rows)
      << "JSONL rows must match in-memory timeline rows";
}

TEST(IterTrace, TrajectoryAveragesAcrossTrials) {
  harness::ExperimentResult result;
  for (int trial = 0; trial < 2; ++trial) {
    harness::RunRecord r;
    r.dataset = "d";
    r.system = "GAP";
    r.algorithm = "PageRank";
    r.trial = trial;
    r.phase = std::string(phase::kAlgorithm);
    r.timeline.push_back(
        IterRecord{0, 0.5, 10, 100, trial == 0 ? 0.4 : 0.2});
    if (trial == 0) {
      // Uneven lengths: iteration 1 has a single contributing sample.
      IterRecord row{1, 0.25, 5, 50,
                     std::numeric_limits<double>::quiet_NaN()};
      r.timeline.push_back(row);
    }
    result.records.push_back(std::move(r));
  }

  const auto traj =
      harness::iteration_trajectory(result, "GAP", "PageRank");
  ASSERT_EQ(traj.size(), 2u);
  EXPECT_EQ(traj[0].samples, 2);
  EXPECT_DOUBLE_EQ(traj[0].mean_seconds, 0.5);
  EXPECT_DOUBLE_EQ(traj[0].mean_frontier, 10.0);
  EXPECT_DOUBLE_EQ(traj[0].mean_residual, 0.3);
  EXPECT_EQ(traj[1].samples, 1);
  EXPECT_FALSE(traj[1].has_residual());

  const std::string csv = harness::trajectories_to_csv(result);
  EXPECT_EQ(csv.compare(0, 6, "system"), 0);
  EXPECT_NE(csv.find("GAP,PageRank,0,2,"), std::string::npos);
  // Absent residual renders as an empty trailing field.
  EXPECT_NE(csv.find(",\n"), std::string::npos);
}

}  // namespace
}  // namespace epgs
