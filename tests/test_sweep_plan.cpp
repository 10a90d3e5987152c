// The plan stage of the runner, and the end-to-end zero-copy data path:
// a warm cached run must regenerate nothing yet produce records
// equivalent (modulo timings) to a cold run.
#include "harness/sweep_plan.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <set>
#include <tuple>

#include "harness/dataset_pipeline.hpp"
#include "harness/runner.hpp"
#include "systems/common/system.hpp"

namespace epgs::harness {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() : path_(fs::temp_directory_path() /
                    ("epgs_plan_" + std::to_string(::getpid()) + "_" +
                     std::to_string(counter_++))) {
    fs::create_directories(path_);
  }
  ~TempDir() { fs::remove_all(path_); }
  [[nodiscard]] const fs::path& path() const { return path_; }

 private:
  static inline int counter_ = 0;
  fs::path path_;
};

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.graph.kind = GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.graph.edgefactor = 6;
  cfg.graph.add_weights = true;
  cfg.systems = {"GAP", "Graph500", "GraphBIG"};
  cfg.algorithms = {Algorithm::kBfs, Algorithm::kSssp};
  cfg.num_roots = 3;
  cfg.threads = 2;
  return cfg;
}

TEST(SweepPlan, EnumeratesUnitsWithKeysAndRebuildDecisions) {
  const auto cfg = small_config();
  const SweepPlan plan = plan_sweep(cfg, nullptr, {});

  EXPECT_EQ(plan.dataset, cfg.graph.name());
  EXPECT_EQ(plan.threads, 2);
  EXPECT_EQ(plan.data_path, DataPath::kInMemory);
  ASSERT_EQ(plan.systems.size(), 3u);

  const auto& gap = plan.systems[0];
  EXPECT_EQ(gap.system, "GAP");
  EXPECT_TRUE(gap.config_error.empty());
  EXPECT_TRUE(gap.rebuild_per_trial);
  EXPECT_EQ(gap.build_key, "GAP|build|-1");
  EXPECT_TRUE(gap.native_file.empty());
  ASSERT_EQ(gap.trials.size(), 6u);  // 2 algorithms x 3 roots
  EXPECT_EQ(gap.trials[0].key, "GAP|BFS|0");
  EXPECT_EQ(gap.trials[5].key, "GAP|SSSP|2");

  // Graph500 "only constructs its graph once"; BFS only.
  const auto& g500 = plan.systems[1];
  EXPECT_FALSE(g500.rebuild_per_trial);
  EXPECT_EQ(g500.trials.size(), 3u);

  // Fused read+build never rebuilds per trial.
  const auto& gbig = plan.systems[2];
  EXPECT_FALSE(gbig.separate_construction);
  EXPECT_FALSE(gbig.rebuild_per_trial);
}

TEST(SweepPlan, MarksReplayedUnitsAndBadSystems) {
  auto cfg = small_config();
  cfg.systems = {"GAP", "NoSuchSystem"};

  std::map<std::string, JournalEntry> journaled;
  journaled["GAP|BFS|1"] = {};
  journaled["GAP|build|-1"] = {};
  const SweepPlan plan = plan_sweep(cfg, nullptr, journaled);

  const auto& gap = plan.systems[0];
  EXPECT_TRUE(gap.build_replayed);
  int replayed = 0;
  for (const auto& t : gap.trials) replayed += t.replayed ? 1 : 0;
  EXPECT_EQ(replayed, 1);

  EXPECT_FALSE(plan.systems[1].config_error.empty());
  EXPECT_TRUE(plan.systems[1].trials.empty());
}

TEST(SweepPlan, NativeFileModeResolvesPerSystemPaths) {
  TempDir tmp;
  DatasetOptions opts;
  opts.cache_dir = tmp.path().string();
  const auto cfg = small_config();
  const auto prep = prepare_dataset(cfg.graph, opts);

  const SweepPlan plan = plan_sweep(cfg, &prep.entry.files, {});
  EXPECT_EQ(plan.data_path, DataPath::kNativeFile);
  for (const auto& sp : plan.systems) {
    EXPECT_FALSE(sp.native_file.empty()) << sp.system;
    EXPECT_TRUE(fs::exists(sp.native_file)) << sp.system;
  }
  // GAP reads the serialized CSR, GraphBIG its csv directory.
  EXPECT_EQ(plan.systems[0].native_file.extension(), ".wsg");
  EXPECT_TRUE(fs::is_directory(plan.systems[2].native_file));
}

// --- end-to-end acceptance: cold vs warm -------------------------------

using RecordKey =
    std::tuple<std::string, std::string, std::string, int, int, std::string,
               std::string>;

std::multiset<RecordKey> record_keys(const std::vector<RunRecord>& records) {
  std::multiset<RecordKey> keys;
  for (const auto& r : records) {
    keys.insert({r.dataset, r.system, r.algorithm, r.threads, r.trial,
                 r.phase, std::string(outcome_name(r.outcome))});
  }
  return keys;
}

TEST(ZeroCopyDataPath, WarmRunRegeneratesNothingAndMatchesColdRecords) {
  TempDir tmp;
  auto cfg = small_config();
  cfg.dataset.cache_dir = (tmp.path() / "cache").string();

  reset_pipeline_stats();
  const auto cold = run_experiment(cfg);
  EXPECT_TRUE(cold.used_dataset_pipeline);
  EXPECT_FALSE(cold.dataset_cache_hit);
  EXPECT_EQ(pipeline_stats().generator_runs, 1u);
  EXPECT_EQ(pipeline_stats().homogenize_runs, 1u);

  const auto warm = run_experiment(cfg);
  EXPECT_TRUE(warm.dataset_cache_hit);
  // The acceptance bar: the warm run re-enters neither the generator nor
  // the homogenizer...
  EXPECT_EQ(pipeline_stats().generator_runs, 1u);
  EXPECT_EQ(pipeline_stats().homogenize_runs, 1u);
  EXPECT_EQ(pipeline_stats().cache_hits, 1u);
  // ...while the phase records stay record-for-record equivalent modulo
  // timings.
  EXPECT_EQ(record_keys(cold.records), record_keys(warm.records));
  EXPECT_EQ(cold.roots, warm.roots);
}

TEST(ZeroCopyDataPath, FileReadPhaseAppearsForSeparateConstruction) {
  TempDir tmp;
  auto cfg = small_config();
  cfg.dataset.cache_dir = (tmp.path() / "cache").string();

  const auto result = run_experiment(cfg);
  // Separate-construction systems time "file read" as its own phase...
  EXPECT_EQ(result.seconds_of("GAP", phase::kFileRead).size(), 1u);
  EXPECT_EQ(result.seconds_of("Graph500", phase::kFileRead).size(), 1u);
  // ...and the bytes are the real on-disk size of the native file.
  for (const auto& r : result.records) {
    if (r.phase == phase::kFileRead) {
      EXPECT_GT(r.work.bytes_touched, 0u) << r.system;
    }
  }
  // Fused systems keep read+build as one phase (Figs 2/3 semantics).
  EXPECT_TRUE(result.seconds_of("GraphBIG", phase::kFileRead).empty());
  ASSERT_EQ(result.seconds_of("GraphBIG", phase::kBuild).size(), 1u);

  // Build sampling is unchanged from the RAM path: GAP rebuilds per
  // trial, Graph500 builds once.
  EXPECT_EQ(result.seconds_of("GAP", phase::kBuild).size(), 6u);
  EXPECT_EQ(result.seconds_of("Graph500", phase::kBuild).size(), 1u);
}

TEST(ZeroCopyDataPath, NoCacheForcesLegacyPath) {
  // Without a cache dir the runner stays on the in-RAM data path.
  auto cfg = small_config();
  ASSERT_TRUE(cfg.dataset.cache_dir.empty());

  const auto result = run_experiment(cfg);
  EXPECT_FALSE(result.used_dataset_pipeline);
  // No file-read phases: edges are staged from RAM.
  EXPECT_TRUE(result.seconds_of("GAP", phase::kFileRead).empty());
}

TEST(ZeroCopyDataPath, JournalResumeSkipsLoadAndTrials) {
  TempDir tmp;
  auto cfg = small_config();
  cfg.systems = {"GAP"};
  cfg.algorithms = {Algorithm::kBfs};
  cfg.dataset.cache_dir = (tmp.path() / "cache").string();
  cfg.supervisor.journal_path = (tmp.path() / "journal").string();

  const auto first = run_experiment(cfg);
  const auto first_keys = record_keys(first.records);

  // Resume with a complete journal: everything replays, nothing re-runs,
  // and the records match the original run exactly (same DNF markers,
  // same phases).
  cfg.supervisor.resume = true;
  const auto resumed = run_experiment(cfg);
  EXPECT_EQ(record_keys(resumed.records), first_keys);
  // The resumed run reuses the cache (hit) and replays the journaled
  // load unit rather than re-journaling it.
  EXPECT_TRUE(resumed.dataset_cache_hit);
}

}  // namespace
}  // namespace epgs::harness
