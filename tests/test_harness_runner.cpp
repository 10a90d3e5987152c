#include "harness/runner.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/error.hpp"
#include "systems/common/system.hpp"

namespace epgs::harness {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.graph.kind = GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 7;
  cfg.graph.edgefactor = 8;
  cfg.graph.add_weights = true;
  cfg.systems = {"GAP", "Graph500", "GraphBIG", "GraphMat", "PowerGraph"};
  cfg.algorithms = {Algorithm::kBfs, Algorithm::kSssp};
  cfg.num_roots = 4;
  cfg.threads = 2;
  cfg.validate = true;
  return cfg;
}

TEST(Runner, RunsAllSystemsAndValidates) {
  const auto result = run_experiment(small_config());
  EXPECT_EQ(result.roots.size(), 4u);

  // Every system produced algorithm records for the algorithms it
  // supports; the unsupported combinations are silently absent.
  EXPECT_EQ(result.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 4u);
  EXPECT_EQ(result.seconds_of("Graph500", phase::kAlgorithm, "BFS").size(),
            4u);
  EXPECT_TRUE(
      result.seconds_of("Graph500", phase::kAlgorithm, "SSSP").empty());
  EXPECT_TRUE(
      result.seconds_of("PowerGraph", phase::kAlgorithm, "BFS").empty());
  EXPECT_EQ(
      result.seconds_of("PowerGraph", phase::kAlgorithm, "SSSP").size(),
      4u);
}

TEST(Runner, ConstructionSamplingMatchesPaper) {
  const auto result = run_experiment(small_config());
  // GAP and GraphMat rebuild per trial (box plots with 32 points in Fig
  // 2); Graph500 "only constructs its graph once".
  EXPECT_EQ(result.seconds_of("GAP", phase::kBuild).size(), 8u);  // 2 algs
  EXPECT_EQ(result.seconds_of("GraphMat", phase::kBuild).size(), 8u);
  EXPECT_EQ(result.seconds_of("Graph500", phase::kBuild).size(), 1u);
  // Fused systems build exactly once too.
  EXPECT_EQ(result.seconds_of("GraphBIG", phase::kBuild).size(), 1u);
}

TEST(Runner, RawLogsParseAsPhaseLogs) {
  // A system's raw log is the text its successful units' records were
  // parsed from, whether the units ran in-process or in forked children.
  for (const bool isolate : {false, true}) {
    SCOPED_TRACE(isolate ? "isolated" : "in-process");
    auto cfg = small_config();
    cfg.supervisor.isolate = isolate;
    const auto result = run_experiment(cfg);
    ASSERT_EQ(result.raw_logs.size(), 5u);
    for (const auto& [system, text] : result.raw_logs) {
      SCOPED_TRACE(system);
      const auto parsed = PhaseLog::parse_log_text(text);
      std::vector<PhaseEntry> logged;
      for (const auto& e : parsed.entries()) {
        if (e.name == phase::kAlgorithm) logged.push_back(e);
      }
      std::vector<RunRecord> kernels;
      for (const auto& r : result.records) {
        if (r.system == system && r.phase == phase::kAlgorithm &&
            r.outcome == Outcome::kSuccess) {
          kernels.push_back(r);
        }
      }
      ASSERT_FALSE(kernels.empty());
      ASSERT_EQ(logged.size(), kernels.size());
      for (std::size_t i = 0; i < logged.size(); ++i) {
        EXPECT_EQ(logged[i].seconds, kernels[i].seconds) << i;
        EXPECT_EQ(logged[i].work.edges_processed,
                  kernels[i].work.edges_processed)
            << i;
        EXPECT_EQ(logged[i].extra, kernels[i].extra) << i;
        EXPECT_EQ(logged[i].timeline.size(), kernels[i].timeline.size())
            << i;
      }
    }
  }
}

TEST(Runner, RecordsCarryWorkCounters) {
  auto cfg = small_config();
  cfg.systems = {"GAP"};
  const auto result = run_experiment(cfg);
  for (const auto& r : result.records) {
    if (r.phase == phase::kAlgorithm) {
      EXPECT_GT(r.work.edges_processed, 0u);
      EXPECT_GE(r.seconds, 0.0);
      EXPECT_EQ(r.threads, 2);
    }
  }
}

TEST(Runner, TrialIndicesAreComplete) {
  auto cfg = small_config();
  cfg.systems = {"GraphMat"};
  cfg.algorithms = {Algorithm::kBfs};
  const auto result = run_experiment(cfg);
  std::set<int> trials;
  for (const auto& r : result.records) {
    if (r.phase == phase::kAlgorithm) trials.insert(r.trial);
  }
  EXPECT_EQ(trials, (std::set<int>{0, 1, 2, 3}));
}

TEST(Runner, PageRankIterationsExposed) {
  ExperimentConfig cfg;
  cfg.graph.kind = GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.systems = {"GAP", "GraphMat"};
  cfg.algorithms = {Algorithm::kPageRank};
  cfg.num_roots = 2;
  cfg.threads = 1;
  const auto result = run_experiment(cfg);
  const auto gap_iters = result.iterations_of("GAP", "PageRank");
  const auto gm_iters = result.iterations_of("GraphMat", "PageRank");
  ASSERT_EQ(gap_iters.size(), 2u);
  ASSERT_EQ(gm_iters.size(), 2u);
  // Fig 4: GraphMat's fixpoint criterion needs at least as many
  // iterations as GAP's L1 criterion.
  EXPECT_GE(gm_iters[0], gap_iters[0]);
}

TEST(Runner, EmptyConfigurationsRejected) {
  ExperimentConfig cfg;
  cfg.systems = {};
  cfg.algorithms = {Algorithm::kBfs};
  EXPECT_THROW(run_experiment(cfg), EpgsError);
  cfg.systems = {"GAP"};
  cfg.algorithms = {};
  EXPECT_THROW(run_experiment(cfg), EpgsError);
}

TEST(Runner, FullAlgorithmGridAcrossAllSystems) {
  // Every algorithm (incl. the Section V extensions) on every system
  // (incl. the Ligra extension): record counts must exactly match each
  // system's capability matrix.
  ExperimentConfig cfg;
  cfg.graph.kind = GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.graph.edgefactor = 8;
  cfg.graph.add_weights = true;
  cfg.systems = {"Graph500", "GAP",        "GraphBIG",
                 "GraphMat", "PowerGraph", "Ligra"};
  cfg.algorithms = {Algorithm::kBfs,  Algorithm::kSssp,
                    Algorithm::kPageRank, Algorithm::kCdlp,
                    Algorithm::kLcc,  Algorithm::kWcc,
                    Algorithm::kTc,   Algorithm::kBc};
  cfg.num_roots = 2;
  cfg.threads = 1;
  cfg.reconstruct_per_trial = false;
  const auto result = run_experiment(cfg);

  const struct {
    const char* system;
    int algorithms;  // supported count out of the 8 requested
  } expected[] = {
      {"Graph500", 1},  // BFS only
      {"GAP", 6},       // BFS SSSP PR WCC TC BC
      {"GraphBIG", 8},  // everything
      {"GraphMat", 8},  // everything
      {"PowerGraph", 6},  // no BFS, no BC
      {"Ligra", 5},     // BFS SSSP PR WCC BC
  };
  for (const auto& e : expected) {
    const auto secs = result.seconds_of(e.system, phase::kAlgorithm);
    EXPECT_EQ(secs.size(),
              static_cast<std::size_t>(e.algorithms) * cfg.num_roots)
        << e.system;
  }
}

TEST(RunnerCsv, RoundTrip) {
  auto cfg = small_config();
  cfg.systems = {"GAP"};
  cfg.algorithms = {Algorithm::kBfs};
  const auto result = run_experiment(cfg);
  const auto csv = records_to_csv(result.records);
  const auto back = records_from_csv(csv);
  ASSERT_EQ(back.size(), result.records.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].system, result.records[i].system);
    EXPECT_EQ(back[i].phase, result.records[i].phase);
    EXPECT_EQ(back[i].trial, result.records[i].trial);
    EXPECT_NEAR(back[i].seconds, result.records[i].seconds, 1e-9);
    EXPECT_EQ(back[i].work.edges_processed,
              result.records[i].work.edges_processed);
  }
}

TEST(RunnerCsv, HeaderPresent) {
  const auto csv = records_to_csv({});
  EXPECT_EQ(csv.rfind("dataset,system,algorithm", 0), 0u);
  EXPECT_TRUE(records_from_csv(csv).empty());
}

TEST(RunnerCsv, OutcomeColumnRoundTrips) {
  RunRecord ok;
  ok.system = "GAP";
  ok.phase = "run algorithm";
  RunRecord dnf;
  dnf.system = "GraphMat";
  dnf.phase = "run algorithm";
  dnf.outcome = Outcome::kTimeout;
  const auto csv = records_to_csv({ok, dnf});
  EXPECT_NE(csv.find(",outcome"), std::string::npos);
  EXPECT_NE(csv.find(",timeout"), std::string::npos);
  const auto back = records_from_csv(csv);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].outcome, Outcome::kSuccess);
  EXPECT_EQ(back[1].outcome, Outcome::kTimeout);
}

TEST(RunnerCsv, WrongColumnCountRejected) {
  const auto csv = records_to_csv({});
  // 11 fields (the pre-outcome format) must be rejected, not half-parsed.
  EXPECT_THROW(records_from_csv(csv + "d,s,a,1,0,p,0.5,0,0,0,3\n"),
               EpgsError);
  // So must 12 (the pre-checkpoint format) and 13.
  EXPECT_THROW(records_from_csv(csv + "d,s,a,1,0,p,0.5,0,0,0,3,success\n"),
               EpgsError);
  EXPECT_THROW(
      records_from_csv(csv + "d,s,a,1,0,p,0.5,0,0,0,3,success,junk\n"),
      EpgsError);
}

TEST(RunnerCsv, MalformedFieldsRejectedWithEpgsError) {
  // 14 fields each, so every row fails on its bad field and not on the
  // column count. Numerics are strict: no trailing text, no sign on the
  // unsigned work counters.
  const auto header = records_to_csv({});
  for (const char* row : {
           "d,s,a,NaNthreads,0,p,0.5,0,0,0,,success,,\n",
           "d,s,a,1,0,p,notasecond,0,0,0,,success,,\n",
           "d,s,a,1,0,p,0.5,0,0,0,,exploded,,\n",
           "d,s,a,1x,0,p,0.5,0,0,0,,success,,\n",
           "d,s,a,1,0,p,0.5s,0,0,0,,success,,\n",
           "d,s,a,1,0,p,0.5,-1,0,0,,success,,\n",
       }) {
    EXPECT_THROW(records_from_csv(header + row), EpgsError) << row;
  }
}

TEST(RunnerCsv, BuildOnceTrialRoundTrips) {
  // Build-once rows carry trial -1, which the signed parser must keep.
  RunRecord build;
  build.system = "GAP";
  build.threads = 2;
  build.phase = std::string(phase::kBuild);
  ASSERT_EQ(build.trial, -1);
  const auto csv = records_to_csv({build});
  const auto back = records_from_csv(csv);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].trial, -1);
  EXPECT_EQ(back[0].threads, 2);
  EXPECT_EQ(records_to_csv(back), csv);
  // Empty work columns still read as 0.
  const auto empty_work = records_from_csv(
      records_to_csv({}) + "d,GAP,,2,-1,build graph,0.25,,,,,success,,\n");
  ASSERT_EQ(empty_work.size(), 1u);
  EXPECT_EQ(empty_work[0].work.edges_processed, 0u);
  EXPECT_EQ(empty_work[0].work.bytes_touched, 0u);
}

TEST(RunnerCsv, ForeignHeaderRejected) {
  EXPECT_THROW(records_from_csv("a,b,c\n1,2,3\n"), EpgsError);
  EXPECT_THROW(records_from_csv(""), EpgsError);
}

}  // namespace
}  // namespace epgs::harness
