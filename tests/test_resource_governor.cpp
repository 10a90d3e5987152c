// The resource governor: OOM and disk exhaustion become per-unit
// outcomes (kOomKilled / kResourceExhausted) instead of harness crashes,
// the RSS watchdog cancels over-budget units, isolated children run under
// RLIMIT_AS, and a full disk degrades the cache and the journal without
// losing the sweep.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "core/fs_shim.hpp"
#include "core/parallel.hpp"
#include "harness/analysis.hpp"
#include "harness/dataset_pipeline.hpp"
#include "harness/runner.hpp"
#include "harness/supervisor.hpp"
#include "test_util.hpp"

namespace epgs::harness {
namespace {

namespace fs = std::filesystem;

class GovernorDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epgs_governor_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
    reset_pipeline_stats();
  }
  void TearDown() override {
    fsx::disarm();
    fs::remove_all(dir_);
  }

  fs::path dir_;
};

ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.graph.kind = GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.graph.edgefactor = 8;
  cfg.systems = {"GAP"};
  cfg.algorithms = {Algorithm::kBfs};
  cfg.num_roots = 3;
  cfg.threads = 1;
  return cfg;
}

int count_outcome(const std::vector<RunRecord>& records, Outcome o) {
  int n = 0;
  for (const auto& r : records) n += (r.outcome == o) ? 1 : 0;
  return n;
}

TEST(Governor, ClassifiesResourceExceptions) {
  EXPECT_EQ(classify_exception(std::bad_alloc()), Outcome::kOomKilled);
  EXPECT_EQ(classify_exception(ResourceExhaustedError("disk full")),
            Outcome::kResourceExhausted);
}

TEST(Governor, OutcomeNamesRoundTrip) {
  EXPECT_EQ(outcome_name(Outcome::kOomKilled), "oom-killed");
  EXPECT_EQ(outcome_name(Outcome::kResourceExhausted), "resource-exhausted");
  EXPECT_EQ(outcome_from_name("oom-killed"), Outcome::kOomKilled);
  EXPECT_EQ(outcome_from_name("resource-exhausted"),
            Outcome::kResourceExhausted);
}

TEST(Governor, BadAllocBecomesOomKilledNotRetried) {
  SupervisorOptions opts;
  opts.max_retries = 5;
  Xoshiro256 rng(1);
  const auto report = supervise_unit(
      [](CancellationToken&) -> PhaseLog {
        throw std::bad_alloc();
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kOomKilled);
  EXPECT_EQ(report.attempts, 1);  // OOM is not transient: no retry storm
}

TEST(Governor, ResourceExhaustedNotRetried) {
  SupervisorOptions opts;
  opts.max_retries = 5;
  Xoshiro256 rng(1);
  const auto report = supervise_unit(
      [](CancellationToken&) -> PhaseLog {
        throw ResourceExhaustedError("write failed for x: ENOSPC");
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kResourceExhausted);
  EXPECT_EQ(report.attempts, 1);
  EXPECT_NE(report.message.find("ENOSPC"), std::string::npos);
}

TEST(Governor, RssWatchdogCancelsOverBudgetUnit) {
  SupervisorOptions opts;
  opts.mem_limit_bytes = 1 << 20;  // 1 MiB: this process is far beyond it
  Xoshiro256 rng(1);
  const auto report = supervise_unit(
      [](CancellationToken& token) -> PhaseLog {
        for (;;) token.checkpoint();  // cooperative loop, cancelled by RSS
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kOomKilled);
  EXPECT_NE(report.message.find("memory limit"), std::string::npos);
}

TEST(Governor, IsolatedChildUnderRlimitAsReportsOomKilled) {
#if defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "RLIMIT_AS breaks ASan's shadow-memory reservation; the "
                  "unsanitized tier-1 job covers this path";
#endif
  SupervisorOptions opts;
  opts.isolate = true;
  opts.mem_limit_bytes = 256ull << 20;  // RLIMIT_AS in the forked child
  Xoshiro256 rng(1);
  const auto report = supervise_unit(
      [](CancellationToken&) -> PhaseLog {
        // Far past any plausible gap between current VA and the cap:
        // the allocation must fail inside the child, not kill the parent.
        std::vector<char> hog(4ull << 30);
        return {};
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kOomKilled);
}

TEST_F(GovernorDir, JournalRoundTripsGovernorOutcomes) {
  const std::string path = (dir_ / "journal.txt").string();
  {
    Journal j;
    j.open_fresh(path, "fp");
    TrialReport oom;
    oom.outcome = Outcome::kOomKilled;
    j.append("GAP|BFS|0", oom);
    TrialReport disk;
    disk.outcome = Outcome::kResourceExhausted;
    j.append("GAP|BFS|1", disk);
    j.close();
  }
  const auto entries = replay_journal(path, "fp");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].report.outcome, Outcome::kOomKilled);
  EXPECT_EQ(entries[1].report.outcome, Outcome::kResourceExhausted);
}

TEST_F(GovernorDir, JournalDegradesOnDiskFullSweepContinues) {
  auto cfg = tiny_config();
  cfg.supervisor.journal_path = (dir_ / "journal.txt").string();

  fsx::Plan plan;
  plan.op = fsx::Op::kWrite;
  plan.error_code = ENOSPC;
  plan.path_substr = "journal.txt";
  plan.at_call = 2;  // header lands; the first unit group hits the wall
  fsx::Scoped armed(plan);

  const auto result = run_experiment(cfg);
  const auto journal_warning = std::ranges::find_if(
      result.warnings, [](const std::string& w) {
        return w.starts_with("journaling stopped mid-sweep");
      });
  ASSERT_NE(journal_warning, result.warnings.end());
  EXPECT_NE(journal_warning->find("journal.txt"), std::string::npos);
  // Every trial still ran and succeeded: journaling died, the sweep not.
  EXPECT_EQ(count_outcome(result.records, Outcome::kSuccess),
            static_cast<int>(result.records.size()));
  EXPECT_GT(result.records.size(), 0u);
}

TEST_F(GovernorDir, CacheEnospcDegradesToUncachedRun) {
  auto cfg = tiny_config();
  cfg.dataset.cache_dir = (dir_ / "cache").string();

  fsx::Plan plan;
  plan.op = fsx::Op::kWrite;
  plan.error_code = ENOSPC;
  plan.path_substr = "cache";
  fsx::Scoped armed(plan);

  const auto result = run_experiment(cfg);
  EXPECT_TRUE(result.dataset_degraded);
  EXPECT_FALSE(result.used_dataset_pipeline);
  ASSERT_FALSE(result.warnings.empty());
  const std::string& warning = result.warnings.front();
  EXPECT_EQ(warning.rfind("dataset cache degraded", 0), 0u) << warning;
  EXPECT_TRUE(warning.find("ENOSPC") != std::string::npos ||
              warning.find("No space") != std::string::npos)
      << warning;
  EXPECT_EQ(count_outcome(result.records, Outcome::kSuccess),
            static_cast<int>(result.records.size()));
  EXPECT_GT(result.records.size(), 0u);
  EXPECT_EQ(pipeline_stats().degraded_runs, 1u);
  // The failed build left no staging litter behind.
  for (const auto& e : fs::directory_iterator(dir_ / "cache")) {
    EXPECT_EQ(e.path().filename().string().rfind(".tmp-", 0),
              std::string::npos)
        << "leaked staging dir " << e.path();
  }
}

TEST_F(GovernorDir, DiskPreflightRefusesImpossibleFloor) {
  DatasetOptions opts;
  opts.cache_dir = (dir_ / "cache").string();
  opts.min_free_disk_bytes = ~0ull;  // no volume has 16 EiB free
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kKronecker;
  spec.scale = 6;
  spec.edgefactor = 8;

  const auto prep = prepare_dataset(spec, opts);
  EXPECT_TRUE(prep.degraded);
  EXPECT_NE(prep.degradation.find("--min-free-disk"), std::string::npos);
  EXPECT_GT(prep.edges.num_edges(), 0u);  // the RAM fallback still ran
}

void expect_no_staging_dir(const fs::path& cache_dir,
                           const std::string& what) {
  for (const auto& e : fs::directory_iterator(cache_dir)) {
    EXPECT_NE(e.path().filename().string().rfind(".tmp-", 0), 0u)
        << "leaked staging dir " << e.path() << " (" << what << ")";
  }
}

GraphSpec kron_s10() {
  GraphSpec spec;
  spec.kind = GraphSpec::Kind::kKronecker;
  spec.scale = 10;
  return spec;
}

TEST_F(GovernorDir, EnospcOnAnyStagedFileDegradesAndARetryPublishesClean) {
  // The staged files are written by concurrent tasks. A full disk under
  // any one of them must surface as the typed error, degrade the run to
  // RAM, leave no staging dir, and leave the cache able to publish the
  // same entry once the disk has room again.
  const GraphSpec spec = kron_s10();
  DatasetOptions clean;
  clean.cache_dir = (dir_ / "clean").string();
  const auto reference = prepare_dataset(spec, clean);
  ASSERT_FALSE(reference.degraded);
  const auto want = test::tree_bytes(reference.entry.dir);
  ASSERT_EQ(want.size(), 10u);  // snapshot, meta and eight format files

  ThreadScope scope(4);  // concurrent writers even on a one-core host
  for (const std::string file :
       {"edges.bin", ".snap", ".g500", ".sg", ".mtx", "vertex.csv",
        "edge.csv", ".tsv", ".adj", "/meta"}) {
    DatasetOptions opts;
    opts.cache_dir = (dir_ / "faulted").string();
    {
      fsx::Plan plan;
      plan.op = fsx::Op::kWrite;
      plan.error_code = ENOSPC;
      plan.path_substr = file;
      fsx::Scoped armed(plan);
      DatasetCache cache(opts.cache_dir);
      EXPECT_THROW(
          cache.materialize(spec_fingerprint(spec), spec.name(),
                            reference.edges),
          ResourceExhaustedError)
          << file;
      const auto prep = prepare_dataset(spec, opts);
      EXPECT_TRUE(prep.degraded) << file;
      EXPECT_NE(prep.degradation.find(file), std::string::npos)
          << prep.degradation;
      EXPECT_NE(prep.degradation.find("No space left on device"),
                std::string::npos)
          << prep.degradation;
      EXPECT_EQ(prep.edges.edges, reference.edges.edges) << file;
    }
    expect_no_staging_dir(opts.cache_dir, file);
    const auto retry = prepare_dataset(spec, opts);
    ASSERT_FALSE(retry.degraded) << file << ": " << retry.degradation;
    EXPECT_FALSE(retry.cache_hit) << file;
    EXPECT_TRUE(test::tree_bytes(retry.entry.dir) == want)
        << "entry published after a fault on " << file
        << " differs from a fault-free one";
    fs::remove_all(opts.cache_dir);
  }
}

TEST_F(GovernorDir, EnospcAtAnyWriteStaysInsideTheWriterTasks) {
  // Unfiltered: the Nth shim write anywhere fails, on whichever writer
  // thread makes it (and, with count=1, only that one). No exception may
  // leave the writers' parallel region, which would end the process in
  // std::terminate; the run degrades exactly when a fault fired.
  const GraphSpec spec = kron_s10();
  ThreadScope scope(4);
  for (const int at : {1, 3, 8, 20, 40}) {
    for (const int count : {1, 1 << 30}) {
      const std::string what =
          "at=" + std::to_string(at) + " count=" + std::to_string(count);
      DatasetOptions opts;
      opts.cache_dir = (dir_ / "unfiltered").string();
      fsx::Plan plan;
      plan.op = fsx::Op::kWrite;
      plan.error_code = ENOSPC;
      plan.at_call = at;
      plan.max_fires = count;
      fsx::Scoped armed(plan);
      const auto prep = prepare_dataset(spec, opts);
      EXPECT_EQ(prep.degraded, fsx::fire_count() > 0) << what;
      EXPECT_LE(fsx::fire_count(), count) << what;
      expect_no_staging_dir(opts.cache_dir, what);
      fs::remove_all(opts.cache_dir);
    }
  }
}

TEST_F(GovernorDir, OutcomeTableRendersGovernorColumns) {
  std::vector<RunRecord> records(3);
  records[0].system = "GAP";
  records[0].outcome = Outcome::kSuccess;
  records[1].system = "GAP";
  records[1].outcome = Outcome::kOomKilled;
  records[2].system = "GAP";
  records[2].outcome = Outcome::kResourceExhausted;
  const auto summary = outcome_summary(records);
  const std::string table = render_outcome_table(summary);
  EXPECT_NE(table.find("oom-killed"), std::string::npos);
  EXPECT_NE(table.find("resource-exhausted"), std::string::npos);
  int failures = 0;
  for (const auto& row : summary) failures += row.failures();
  EXPECT_EQ(failures, 2);  // both governor outcomes count as DNFs
}

}  // namespace
}  // namespace epgs::harness
