// The trial supervisor: watchdog timeouts, crash isolation, retry with
// backoff, and resumable journals — each failure path demonstrated
// deterministically via the fault-injection hooks, never by luck.
#include "harness/supervisor.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "harness/analysis.hpp"
#include "harness/collector.hpp"
#include "harness/runner.hpp"
#include "systems/common/fault_injection.hpp"
#include "systems/common/system.hpp"

namespace epgs::harness {
namespace {

namespace fs = std::filesystem;

class SupervisorDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epgs_supervisor_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    reset_interrupt();
    fs::remove_all(dir_);
  }

  [[nodiscard]] std::string journal_path() const {
    return (dir_ / "journal.txt").string();
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

std::vector<RunRecord> records_with(const ExperimentResult& result,
                                    Outcome outcome) {
  std::vector<RunRecord> out;
  for (const auto& r : result.records) {
    if (r.outcome == outcome) out.push_back(r);
  }
  return out;
}

// --- unit-level supervisor behaviour ------------------------------------

TEST(Cancellation, CheckpointThrowsOnlyAfterCancel) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.checkpoint());
  token.cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.checkpoint(), CancelledError);
}

TEST(Supervisor, ClassifiesExceptionTaxonomy) {
  EXPECT_EQ(classify_exception(CancelledError("t")), Outcome::kTimeout);
  EXPECT_EQ(classify_exception(TransientError("t")), Outcome::kTransient);
  EXPECT_EQ(classify_exception(UnsupportedAlgorithm("t")),
            Outcome::kUnsupported);
  EXPECT_EQ(classify_exception(ValidationFailedError("t")),
            Outcome::kValidationFailed);
  EXPECT_EQ(classify_exception(EpgsError("t")), Outcome::kCrash);
  EXPECT_EQ(classify_exception(std::runtime_error("t")), Outcome::kCrash);
}

TEST(Supervisor, BackoffGrowsExponentiallyAndClamps) {
  SupervisorOptions opts;
  opts.backoff_base_seconds = 0.1;
  opts.backoff_max_seconds = 2.0;
  Xoshiro256 rng(7);
  const double d1 = backoff_delay(opts, 1, rng);
  const double d2 = backoff_delay(opts, 2, rng);
  EXPECT_GE(d1, 0.1);
  EXPECT_LT(d1, 0.2);  // jitter multiplies by [1, 2)
  EXPECT_GE(d2, 0.2);
  EXPECT_LT(d2, 0.4);
  EXPECT_DOUBLE_EQ(backoff_delay(opts, 20, rng), 2.0);
}

/// A successful unit's log comes back whole, timeline rows included.
void expect_log_passes_through(bool isolate) {
  SupervisorOptions opts;
  opts.isolate = isolate;
  Xoshiro256 rng(1);
  const auto report = supervise_unit(
      [](CancellationToken&) {
        PhaseEntry e;
        e.name = "run algorithm";
        e.seconds = 0.5;
        e.work.edges_processed = 42;
        e.extra = {{"alg", "Fake"}};
        e.timeline = {IterRecord{.iter = 0, .frontier = 1, .edges = 3}};
        PhaseLog log;
        log.add(std::move(e));
        return log;
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kSuccess) << report.message;
  EXPECT_EQ(report.attempts, 1);
  ASSERT_EQ(report.log.entries().size(), 1u);
  const PhaseEntry& got = report.log.entries()[0];
  EXPECT_EQ(got.name, "run algorithm");
  EXPECT_EQ(got.seconds, 0.5);
  EXPECT_EQ(got.work.edges_processed, 42u);
  EXPECT_EQ(got.extra.at("alg"), "Fake");
  ASSERT_EQ(got.timeline.size(), 1u);
  EXPECT_EQ(got.timeline[0].edges, 3u);
  EXPECT_FALSE(got.timeline[0].has_residual());
}

TEST(Supervisor, SuccessPassesRecordsThrough) {
  expect_log_passes_through(/*isolate=*/false);
}

TEST(Supervisor, IsolatedChildPipesItsLogBack) {
  // The forked child writes the log as text and the parent parses it.
  expect_log_passes_through(/*isolate=*/true);
}

TEST(Supervisor, WatchdogCancelsCooperativeLoopAtDeadline) {
  SupervisorOptions opts;
  opts.timeout_seconds = 0.2;
  Xoshiro256 rng(1);
  const auto report = supervise_unit(
      [](CancellationToken& token) -> PhaseLog {
        for (;;) {  // cooperative livelock: only the watchdog ends it
          token.checkpoint();
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kTimeout);
  // The watchdog cannot fire before its steady-clock deadline.
  EXPECT_GE(report.elapsed_seconds, 0.2);
}

std::size_t thread_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& task :
       fs::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

TEST(Supervisor, DeadlineIsPolledWithoutAHelperThread) {
  SupervisorOptions opts;
  opts.timeout_seconds = 30.0;
  Xoshiro256 rng(1);
  const std::size_t before = thread_count();
  std::size_t during = 0;
  const auto report = supervise_unit(
      [&](CancellationToken&) {
        during = thread_count();
        return PhaseLog{};
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kSuccess);
  EXPECT_EQ(during, before) << "a timed attempt must not start a thread";
}

// --- the outcome table ---------------------------------------------------
//
// A CancelledError says only that the token was cancelled. run_attempt
// names the cause: an interrupt first, then an RSS trip, then a
// configured timeout; with no guard configured it is a crash.

struct OutcomeCase {
  const char* name;
  double timeout_seconds = 0;
  std::uint64_t mem_limit_bytes = 0;
  bool interrupt = false;        ///< the unit raises SIGINT mid-loop
  bool throw_cancelled = false;  ///< the unit throws CancelledError itself
  Outcome want = Outcome::kSuccess;
  std::string_view message_prefix;
  std::string_view message_has;
};

class SupervisorInterrupt : public ::testing::Test {
 protected:
  void TearDown() override { reset_interrupt(); }
};

TEST_F(SupervisorInterrupt, OutcomeTableNamesTheCauseOfCancellation) {
  const OutcomeCase cases[] = {
      {.name = "timeout only",
       .timeout_seconds = 0.2,
       .want = Outcome::kTimeout,
       .message_prefix = "trial cancelled"},
      {.name = "interrupt during the unit",
       .interrupt = true,
       .want = Outcome::kInterrupted,
       .message_prefix = "interrupted by signal 2"},
      {.name = "interrupt and timeout together",
       .timeout_seconds = 0.05,
       .interrupt = true,
       .want = Outcome::kInterrupted,
       .message_prefix = "interrupted by signal 2"},
      {.name = "RSS over the limit",
       .mem_limit_bytes = 1 << 20,
       .want = Outcome::kOomKilled,
       .message_has = "memory limit"},
      {.name = "CancelledError with no guard",
       .throw_cancelled = true,
       .want = Outcome::kCrash},
  };
  for (const OutcomeCase& c : cases) {
    SCOPED_TRACE(c.name);
    reset_interrupt();
    SupervisorOptions opts;
    opts.timeout_seconds = c.timeout_seconds;
    opts.mem_limit_bytes = c.mem_limit_bytes;
    opts.max_retries = 3;
    opts.backoff_base_seconds = 1e-4;
    opts.backoff_max_seconds = 1e-3;
    Xoshiro256 rng(1);
    const auto report = supervise_unit(
        [&](CancellationToken& token) -> PhaseLog {
          if (c.throw_cancelled) throw CancelledError("no guard fired");
          // Bounded so a broken cancellation path fails, not hangs.
          for (int poll = 0; poll < 20000; ++poll) {
            if (c.interrupt && poll == 3) request_interrupt(SIGINT);
            token.checkpoint();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
          return {};
        },
        opts, rng);
    EXPECT_EQ(outcome_name(report.outcome), outcome_name(c.want));
    EXPECT_EQ(report.attempts, 1);
    EXPECT_EQ(report.message.rfind(c.message_prefix, 0), 0u)
        << report.message;
    EXPECT_NE(report.message.find(c.message_has), std::string::npos)
        << report.message;
    if (c.want == Outcome::kTimeout) {
      EXPECT_GE(report.elapsed_seconds, c.timeout_seconds);
    }
  }
}

TEST(Supervisor, TransientRetriedUntilSuccess) {
  SupervisorOptions opts;
  opts.max_retries = 3;
  opts.backoff_base_seconds = 1e-4;
  opts.backoff_max_seconds = 1e-3;
  Xoshiro256 rng(1);
  int calls = 0;
  const auto report = supervise_unit(
      [&](CancellationToken&) -> PhaseLog {
        if (++calls < 3) throw TransientError("flaky");
        return {};
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kSuccess);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(calls, 3);
}

TEST(Supervisor, TransientExhaustsRetryBudget) {
  SupervisorOptions opts;
  opts.max_retries = 2;
  opts.backoff_base_seconds = 1e-4;
  Xoshiro256 rng(1);
  int calls = 0;
  const auto report = supervise_unit(
      [&](CancellationToken&) -> PhaseLog {
        ++calls;
        throw TransientError("always flaky");
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kTransient);
  EXPECT_EQ(report.attempts, 3);  // 1 try + 2 retries
  EXPECT_EQ(calls, 3);
  EXPECT_NE(report.message.find("always flaky"), std::string::npos);
}

TEST(Supervisor, NonTransientFailuresAreNotRetried) {
  SupervisorOptions opts;
  opts.max_retries = 5;
  Xoshiro256 rng(1);
  int calls = 0;
  const auto report = supervise_unit(
      [&](CancellationToken&) -> PhaseLog {
        ++calls;
        throw EpgsError("deterministic bug");
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kCrash);
  EXPECT_EQ(calls, 1) << "retrying a deterministic failure wastes the sweep";
}

TEST(Supervisor, RetryAllFailuresWidensRetryToCrashes) {
  // The chaos posture: with retry_all_failures a contained crash retries
  // even without a snapshot (full restart), and the recovered report
  // remembers what the earlier attempts died of.
  SupervisorOptions opts;
  opts.max_retries = 2;
  opts.retry_all_failures = true;
  opts.backoff_base_seconds = 1e-4;
  opts.backoff_max_seconds = 1e-3;
  Xoshiro256 rng(1);
  int calls = 0;
  const auto report = supervise_unit(
      [&](CancellationToken&) -> PhaseLog {
        if (++calls < 3) throw EpgsError("chaos-injected fault");
        return {};
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kSuccess);
  EXPECT_EQ(report.attempts, 3);
  EXPECT_EQ(report.last_failure, Outcome::kCrash);
}

TEST(Supervisor, RetryAllStillTreatsUnsupportedAsTerminal) {
  // kUnsupported reproduces by construction; even the chaos posture must
  // not burn its retry budget on it.
  SupervisorOptions opts;
  opts.max_retries = 5;
  opts.retry_all_failures = true;
  Xoshiro256 rng(1);
  int calls = 0;
  const auto report = supervise_unit(
      [&](CancellationToken&) -> PhaseLog {
        ++calls;
        throw UnsupportedAlgorithm("no BC on Graph500");
      },
      opts, rng);
  EXPECT_EQ(report.outcome, Outcome::kUnsupported);
  EXPECT_EQ(calls, 1);
}

// --- supervised sweeps with injected faults -----------------------------

TEST(SupervisedRun, HangCancelledAtDeadlineSweepContinues) {
  auto cfg = tiny_config();
  cfg.supervisor.timeout_seconds = 0.3;
  fault::Scoped fault(
      {.system = "GAP", .kind = fault::Kind::kHang, .phase = "bfs"});

  const auto result = run_experiment(cfg);

  const auto timeouts = records_with(result, Outcome::kTimeout);
  ASSERT_EQ(timeouts.size(), 1u);
  EXPECT_EQ(timeouts[0].trial, 0);
  EXPECT_EQ(timeouts[0].algorithm, "BFS");
  EXPECT_EQ(std::string_view(timeouts[0].phase), phase::kAlgorithm);
  // Cancellation cannot precede the steady-clock deadline.
  EXPECT_GE(timeouts[0].seconds, 0.3);
  // The other two trials ran to completion after the DNF.
  EXPECT_EQ(result.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 2u);
}

TEST(SupervisedRun, AbortContainedByIsolationSweepContinues) {
  auto cfg = tiny_config();
  cfg.systems = {"GAP", "GraphMat"};
  cfg.num_roots = 2;
  cfg.supervisor.isolate = true;
  // Children inherit the armed plan at fork() and counters never
  // propagate back, so every GAP child aborts.
  fault::Scoped fault(
      {.system = "GAP", .kind = fault::Kind::kAbort, .phase = "bfs"});

  const auto result = run_experiment(cfg);

  const auto crashes = records_with(result, Outcome::kCrash);
  ASSERT_EQ(crashes.size(), 2u);
  for (const auto& r : crashes) {
    EXPECT_EQ(r.system, "GAP");
    EXPECT_NE(r.extra.at("error").find("signal"), std::string::npos);
  }
  // GraphMat's isolated trials succeeded and their records (with work
  // counters) crossed the pipe intact.
  const auto gm = result.seconds_of("GraphMat", phase::kAlgorithm, "BFS");
  EXPECT_EQ(gm.size(), 2u);
  for (const auto& r : result.records) {
    if (r.system == "GraphMat" &&
        std::string_view(r.phase) == phase::kAlgorithm) {
      EXPECT_GT(r.work.edges_processed, 0u);
    }
  }
}

TEST(SupervisedRun, TransientFaultRetriedToSuccess) {
  auto cfg = tiny_config();
  cfg.num_roots = 1;
  cfg.supervisor.max_retries = 2;
  cfg.supervisor.backoff_base_seconds = 1e-4;
  cfg.supervisor.backoff_max_seconds = 1e-3;
  fault::Scoped fault({.system = "GAP",
                       .kind = fault::Kind::kTransient,
                       .max_fires = 1,
                       .phase = "bfs"});

  const auto result = run_experiment(cfg);

  EXPECT_EQ(fault::fire_count(), 1);
  EXPECT_TRUE(records_with(result, Outcome::kTransient).empty());
  const auto secs = result.seconds_of("GAP", phase::kAlgorithm, "BFS");
  ASSERT_EQ(secs.size(), 1u);
  bool attempts_recorded = false;
  for (const auto& r : result.records) {
    if (std::string_view(r.phase) == phase::kAlgorithm) {
      attempts_recorded |= r.extra.count("attempts") != 0 &&
                           r.extra.at("attempts") == "2";
    }
  }
  EXPECT_TRUE(attempts_recorded);
}

TEST(SupervisedRun, TransientExhaustionRecordedAsDnf) {
  auto cfg = tiny_config();
  cfg.num_roots = 1;
  cfg.supervisor.max_retries = 1;
  cfg.supervisor.backoff_base_seconds = 1e-4;
  fault::Scoped fault({.system = "GAP",
                       .kind = fault::Kind::kTransient,
                       .max_fires = 1000,
                       .phase = "bfs"});

  const auto result = run_experiment(cfg);

  const auto dnf = records_with(result, Outcome::kTransient);
  ASSERT_EQ(dnf.size(), 1u);
  EXPECT_EQ(dnf[0].extra.at("attempts"), "2");
  EXPECT_TRUE(result.seconds_of("GAP", phase::kAlgorithm, "BFS").empty());
}

TEST(SupervisedRun, WrongOutputCaughtByValidation) {
  auto cfg = tiny_config();
  cfg.num_roots = 2;
  cfg.validate = true;
  fault::Scoped fault({.system = "GAP",
                       .kind = fault::Kind::kWrongOutput,
                       .max_fires = 1,
                       .phase = "bfs"});

  const auto result = run_experiment(cfg);

  const auto bad = records_with(result, Outcome::kValidationFailed);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].trial, 0);
  EXPECT_NE(bad[0].extra.at("error").find("BFS invalid"),
            std::string::npos);
  EXPECT_EQ(result.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 1u);
}

// Every system's result for a root is checked against the same
// per-sweep reference answer. A wrong output in the last system's last
// trial must be the only rejection: a reference indexed by the wrong
// root, or not shared correctly across systems, would reject correct
// units too.
void expect_only_failure_at(const ExperimentResult& result,
                            const std::vector<std::string>& systems,
                            const std::string& alg,
                            const std::string& bad_system, int bad_trial) {
  const auto bad = records_with(result, Outcome::kValidationFailed);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].system, bad_system);
  EXPECT_EQ(bad[0].algorithm, alg);
  EXPECT_EQ(bad[0].trial, bad_trial);
  EXPECT_NE(bad[0].extra.at("error").find(alg + " invalid"),
            std::string::npos);
  for (const auto& r : result.records) {
    if (r.outcome == Outcome::kValidationFailed) continue;
    EXPECT_EQ(r.outcome, Outcome::kSuccess)
        << r.system << " " << r.algorithm << " trial " << r.trial;
  }
  for (const auto& sys : systems) {
    EXPECT_EQ(result.seconds_of(sys, phase::kAlgorithm, alg).size(),
              sys == bad_system ? 2u : 3u)
        << sys;
  }
}

TEST(SupervisedRun, WrongOutputRejectedOnlyAtItsRootAcrossSystems) {
  auto cfg = tiny_config();
  cfg.systems = {"GAP", "Graph500", "GraphBIG", "GraphMat", "Ligra"};
  cfg.num_roots = 3;
  cfg.validate = true;
  fault::Scoped fault({.system = "Ligra",
                       .kind = fault::Kind::kWrongOutput,
                       .at_phase = 2,
                       .phase = "bfs"});

  const auto result = run_experiment(cfg);

  expect_only_failure_at(result, cfg.systems, "BFS", "Ligra", 2);
}

TEST(SupervisedRun, WrongSsspOutputRejectedOnlyAtItsRootAcrossSystems) {
  auto cfg = tiny_config();
  cfg.graph.add_weights = true;
  cfg.systems = {"GAP", "GraphBIG", "GraphMat", "PowerGraph", "Ligra"};
  cfg.algorithms = {Algorithm::kSssp};
  cfg.num_roots = 3;
  cfg.validate = true;
  fault::Scoped fault({.system = "Ligra",
                       .kind = fault::Kind::kWrongOutput,
                       .at_phase = 2,
                       .phase = "sssp"});

  const auto result = run_experiment(cfg);

  expect_only_failure_at(result, cfg.systems, "SSSP", "Ligra", 2);
}

TEST(SupervisedRun, UnknownSystemIsConfigOutcomeNotAbort) {
  auto cfg = tiny_config();
  cfg.systems = {"NoSuchSystem", "GAP"};
  const auto result = run_experiment(cfg);
  const auto bad = records_with(result, Outcome::kConfig);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].system, "NoSuchSystem");
  EXPECT_EQ(result.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 3u);
}

// --- journal and resume --------------------------------------------------

/// A report with every field set, log and timeline included.
TrialReport full_report() {
  TrialReport r;
  r.outcome = Outcome::kSuccess;
  r.attempts = 3;
  r.last_failure = Outcome::kOomKilled;
  r.resumed_from_iter = 17;
  r.elapsed_seconds = 0.1 + 0.2;  // not a short decimal
  r.crash_fingerprint = "deadbeefdeadbeef";
  r.crash_report_path = "crash/GAP_PageRank_0.crash.prev";
  r.warning = "checkpoint snapshot invalidated (torn payload section)";
  PhaseEntry e;
  e.name = std::string(phase::kAlgorithm);
  e.seconds = 1.25;
  e.work.edges_processed = 42;
  e.extra = {{"iterations", "2"}};
  e.timeline = {IterRecord{.iter = 0, .frontier = 1, .edges = 3},
                IterRecord{.iter = 1, .seconds = 0.5, .residual = 1e-3}};
  r.log.add(std::move(e));
  return r;
}

void expect_same_report(const TrialReport& got, const TrialReport& want) {
  EXPECT_EQ(got.outcome, want.outcome);
  EXPECT_EQ(got.attempts, want.attempts);
  EXPECT_EQ(got.last_failure, want.last_failure);
  EXPECT_EQ(got.resumed_from_iter, want.resumed_from_iter);
  EXPECT_EQ(got.elapsed_seconds, want.elapsed_seconds);
  EXPECT_EQ(got.message, want.message);
  EXPECT_EQ(got.crash_fingerprint, want.crash_fingerprint);
  EXPECT_EQ(got.crash_report_path, want.crash_report_path);
  EXPECT_EQ(got.snapshot_iter, want.snapshot_iter);
  EXPECT_EQ(got.warning, want.warning);
  EXPECT_EQ(got.log.to_log_text(), want.log.to_log_text());
}

/// One journal group as Journal::append writes it.
std::string group(const std::string& key, const std::string& body) {
  return "unit " + key + "|" + std::to_string(body.size()) + "\n" + body +
         "end\n";
}

constexpr std::string_view kHeader = "epgs-journal-v3\nconfig fp\n";

TEST(Supervisor, ReportTextRoundTripsEveryField) {
  const TrialReport want = full_report();
  expect_same_report(TrialReport::parse_report_text(want.to_report_text()),
                     want);
  TrialReport fail;
  fail.outcome = Outcome::kCrash;
  fail.message = "killed by signal 11\n[SIGSEGV at bfs]";  // one line out
  fail.snapshot_iter = 4;
  const TrialReport got =
      TrialReport::parse_report_text(fail.to_report_text());
  EXPECT_EQ(got.message, "killed by signal 11 [SIGSEGV at bfs]");
  EXPECT_EQ(got.snapshot_iter, 4);
  EXPECT_TRUE(got.log.entries().empty());
  EXPECT_THROW((void)TrialReport::parse_report_text("outcome success\n"),
               EpgsError);
}

TEST_F(SupervisorDir, JournalRoundTripsUnits) {
  Journal j;
  j.open_fresh(journal_path(), "fp-1");
  TrialReport rep = full_report();
  j.append("GAP|BFS|0", rep);
  TrialReport fail;
  fail.outcome = Outcome::kTimeout;
  fail.message = "deadline exceeded";
  fail.elapsed_seconds = 2.5;
  j.append("GAP|BFS|1", fail);
  j.close();

  const auto entries = replay_journal(journal_path(), "fp-1");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "GAP|BFS|0");
  expect_same_report(entries[0].report, rep);
  ASSERT_EQ(entries[0].report.log.entries().size(), 1u);
  EXPECT_EQ(entries[0].report.log.entries()[0].work.edges_processed, 42u);
  EXPECT_EQ(entries[0].report.log.entries()[0].timeline.size(), 2u);
  EXPECT_EQ(entries[1].key, "GAP|BFS|1");
  expect_same_report(entries[1].report, fail);
}

TEST_F(SupervisorDir, JournalGroupCarriesRetryAndResumeDetail) {
  Journal j;
  j.open_fresh(journal_path(), "fp");
  TrialReport rep;
  rep.outcome = Outcome::kSuccess;
  rep.attempts = 3;
  rep.last_failure = Outcome::kOomKilled;
  rep.resumed_from_iter = 17;
  j.append("GAP|PageRank|0", rep);
  j.close();

  const auto entries = replay_journal(journal_path(), "fp");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].report.attempts, 3);
  EXPECT_EQ(entries[0].report.last_failure, Outcome::kOomKilled);
  EXPECT_EQ(entries[0].report.resumed_from_iter, 17);
}

TEST_F(SupervisorDir, ReplayDropsGroupWithoutEndAsTornTail) {
  // Every group closes with an "end" line right after its body. A body
  // followed by anything else is not a complete group: replay keeps the
  // groups before it and drops it and everything after, so those units
  // re-run.
  const std::string body = TrialReport{}.to_report_text();
  const std::string unended = "unit GAP|BFS|1|" +
                              std::to_string(body.size()) + "\n" + body;
  const std::string torn[] = {unended, unended + "end 1|success|-1\n",
                              unended + "\n"};
  for (const std::string& bad : torn) {
    SCOPED_TRACE(bad);
    std::ofstream(journal_path(), std::ios::trunc)
        << kHeader << group("GAP|BFS|0", body) << bad
        << group("GAP|BFS|2", body);
    const auto entries = replay_journal(journal_path(), "fp");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].key, "GAP|BFS|0");
  }
}

TEST_F(SupervisorDir, ReplayTreatsNumericJunkAsTornTail) {
  // A number with trailing junk is a torn field, not its numeric prefix:
  // replay stops at the first such group, in the byte count or in a
  // report field, and keeps only the groups before it.
  const std::string body = TrialReport{}.to_report_text();
  const auto with = [&body](std::string_view from, std::string_view to) {
    std::string b = body;
    b.replace(b.find(from), from.size(), to);
    return group("GAP|BFS|1", b);
  };
  const std::string torn[] = {
      "unit GAP|BFS|1|" + std::to_string(body.size()) + "x\n" + body +
          "end\n",
      "unit GAP|BFS|1|\n" + body + "end\n",
      with("attempts 1", "attempts 1x"),
      with("resumed -1", "resumed -1x"),
      with("snapshot -1", "snapshot 3x"),
  };
  for (const std::string& bad : torn) {
    SCOPED_TRACE(bad);
    std::ofstream(journal_path(), std::ios::trunc)
        << kHeader << group("GAP|BFS|0", body) << bad
        << group("GAP|BFS|2", body);
    const auto entries = replay_journal(journal_path(), "fp");
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0].key, "GAP|BFS|0");
  }
}

TEST_F(SupervisorDir, ReplayKeepsSnapshotIterationOfFailedGroup) {
  // A failed unit that left a snapshot names its iteration inside its
  // own group; replay hands it back with the rest of the report.
  Journal j;
  j.open_fresh(journal_path(), "fp");
  TrialReport ok;
  j.append("GAP|PageRank|0", ok);
  TrialReport fail;
  fail.outcome = Outcome::kCrash;
  fail.snapshot_iter = 7;
  j.append("GAP|PageRank|1", fail);
  j.close();

  const auto entries = replay_journal(journal_path(), "fp");
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].key, "GAP|PageRank|0");
  EXPECT_EQ(entries[0].report.snapshot_iter, -1);
  EXPECT_EQ(entries[1].report.outcome, Outcome::kCrash);
  EXPECT_EQ(entries[1].report.snapshot_iter, 7);
}

TEST_F(SupervisorDir, ReplayToleratesTornCheckpointTail) {
  Journal j;
  j.open_fresh(journal_path(), "fp");
  TrialReport ok;
  j.append("GAP|PageRank|0", ok);
  j.close();
  {
    // Crash mid-append of a failed group: the file ends inside the
    // report's snapshot field.
    TrialReport fail;
    fail.outcome = Outcome::kOomKilled;
    fail.snapshot_iter = 12;
    const std::string g = group("GAP|PageRank|1", fail.to_report_text());
    std::ofstream f(journal_path(), std::ios::app);
    f << g.substr(0, g.find("snapshot 12") + 10);
  }
  const auto entries = replay_journal(journal_path(), "fp");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "GAP|PageRank|0");
}

TEST_F(SupervisorDir, ReplayDuplicateKeysLastWins) {
  // A resumed sweep re-runs a unit that earlier failed with a snapshot:
  // the journal holds both groups and the collector must keep the later.
  Journal j;
  j.open_fresh(journal_path(), "fp");
  TrialReport fail;
  fail.outcome = Outcome::kTimeout;
  j.append("GAP|PageRank|0", fail);
  TrialReport ok;
  ok.attempts = 1;
  ok.resumed_from_iter = 9;
  j.append("GAP|PageRank|0", ok);
  j.close();

  const auto entries = replay_journal(journal_path(), "fp");
  ASSERT_EQ(entries.size(), 2u);  // replay returns both, in order
  EXPECT_EQ(entries[1].report.outcome, Outcome::kSuccess);
  EXPECT_EQ(entries[1].report.resumed_from_iter, 9);

  SupervisorOptions sup;
  sup.journal_path = journal_path();
  sup.resume = true;
  RecordCollector collector(sup, "fp");
  ASSERT_TRUE(collector.is_journaled("GAP|PageRank|0"));
  EXPECT_EQ(collector.journaled().at("GAP|PageRank|0").report.outcome,
            Outcome::kSuccess);
}

TEST_F(SupervisorDir, ResumableFailureWithSnapshotIsRerunOnResume) {
  const fs::path ckpt_dir = dir_ / "ckpts";
  fs::create_directories(ckpt_dir);
  Journal j;
  j.open_fresh(journal_path(), "fp");
  TrialReport crash;
  crash.outcome = Outcome::kCrash;
  j.append("GAP|PageRank|0", crash);  // snapshot exists -> re-run
  TrialReport timeout;
  timeout.outcome = Outcome::kTimeout;
  j.append("GAP|PageRank|1", timeout);  // no snapshot -> settled DNF
  TrialReport interrupted;
  interrupted.outcome = Outcome::kInterrupted;
  j.append("GAP|PageRank|2", interrupted);  // always re-run
  j.close();
  std::ofstream(CheckpointSession::path_for(ckpt_dir, "GAP|PageRank|0"))
      << "placeholder";

  SupervisorOptions sup;
  sup.journal_path = journal_path();
  sup.resume = true;
  sup.checkpoint_dir = ckpt_dir.string();
  RecordCollector collector(sup, "fp");
  EXPECT_FALSE(collector.is_journaled("GAP|PageRank|0"));
  EXPECT_TRUE(collector.is_journaled("GAP|PageRank|1"));
  EXPECT_FALSE(collector.is_journaled("GAP|PageRank|2"));
}

TEST_F(SupervisorDir, ReplayRejectsFingerprintMismatch) {
  Journal j;
  j.open_fresh(journal_path(), "fp-1");
  j.close();
  EXPECT_NO_THROW(replay_journal(journal_path(), "fp-1"));
  EXPECT_THROW(replay_journal(journal_path(), "fp-2"), EpgsError);
  EXPECT_THROW(replay_journal((dir_ / "missing").string(), "fp-1"),
               EpgsError);
}

TEST_F(SupervisorDir, ReplayRejectsVersionOneJournal) {
  // A v1 journal (CSV "rec" rows) has no reader: resume refuses it
  // rather than replaying rows it cannot rebuild.
  std::ofstream(journal_path())
      << "epgs-journal-v1\nconfig fp\n"
      << "unit GAP|BFS|0|success|1|0\nend 1|success|-1\n";
  try {
    (void)replay_journal(journal_path(), "fp");
    FAIL() << "a v1 journal replayed";
  } catch (const EpgsError& e) {
    EXPECT_NE(std::string(e.what()).find("bad header"), std::string::npos)
        << e.what();
  }
}

TEST_F(SupervisorDir, ReplayRejectsVersionTwoJournal) {
  // A v2 report has no warning line; there is no fallback reader.
  TrialReport rep;
  std::string body = rep.to_report_text();
  const std::size_t at = body.find("warning \n");
  ASSERT_NE(at, std::string::npos);
  body.erase(at, std::string_view("warning \n").size());
  std::ofstream(journal_path())
      << "epgs-journal-v2\nconfig fp\n" << group("GAP|BFS|0", body);
  try {
    (void)replay_journal(journal_path(), "fp");
    FAIL() << "a v2 journal replayed";
  } catch (const EpgsError& e) {
    EXPECT_NE(std::string(e.what()).find("bad header"), std::string::npos)
        << e.what();
  }
}

TEST_F(SupervisorDir, ReplayDropsTornTrailingGroup) {
  Journal j;
  j.open_fresh(journal_path(), "fp");
  TrialReport rep;
  j.append("GAP|BFS|0", rep);
  j.close();
  {
    // Simulate a crash mid-append: a body shorter than its byte count.
    const std::string g = group("GAP|BFS|1", full_report().to_report_text());
    std::ofstream f(journal_path(), std::ios::app);
    f << g.substr(0, g.size() / 2);
  }
  const auto entries = replay_journal(journal_path(), "fp");
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].key, "GAP|BFS|0");
}

TEST_F(SupervisorDir, ResumeReexecutesZeroCompletedTrials) {
  auto cfg = tiny_config();
  cfg.systems = {"GAP", "Graph500"};  // per-trial and build-once paths
  cfg.num_roots = 2;
  cfg.supervisor.journal_path = journal_path();

  const auto first = run_experiment(cfg);
  EXPECT_TRUE(records_with(first, Outcome::kSuccess).size() ==
              first.records.size());

  // Count every phase the resumed sweep actually starts: a correct resume
  // starts none.
  cfg.supervisor.resume = true;
  fault::Scoped probe({.kind = fault::Kind::kNone, .max_fires = 0});
  const auto second = run_experiment(cfg);
  EXPECT_EQ(fault::phase_events(), 0)
      << "resume re-executed journaled trials";
  EXPECT_EQ(second.records.size(), first.records.size());
  EXPECT_EQ(second.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 2u);
  EXPECT_EQ(second.seconds_of("Graph500", phase::kBuild).size(), 1u);
}

void expect_same_timeline(const std::vector<IterRecord>& got,
                          const std::vector<IterRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].iter, want[i].iter);
    EXPECT_EQ(got[i].seconds, want[i].seconds);
    EXPECT_EQ(got[i].frontier, want[i].frontier);
    EXPECT_EQ(got[i].edges, want[i].edges);
    EXPECT_EQ(got[i].has_residual(), want[i].has_residual());
    if (got[i].has_residual()) EXPECT_EQ(got[i].residual, want[i].residual);
  }
}

TEST_F(SupervisorDir, ResumeRebuildsEveryRowAsTheLiveRunDid) {
  // Per-trial rebuild (GAP, GraphMat) and build-once (PowerGraph) units,
  // BFS and PageRank timelines: a fully journaled sweep resumed runs
  // nothing and returns the live run's rows, extras and timelines, in
  // the live run's order.
  auto cfg = tiny_config();
  cfg.graph.scale = 10;
  cfg.graph.edgefactor = 16;
  cfg.systems = {"GAP", "GraphMat", "PowerGraph"};
  cfg.algorithms = {Algorithm::kBfs, Algorithm::kPageRank};
  cfg.num_roots = 2;
  cfg.supervisor.journal_path = journal_path();
  const auto first = run_experiment(cfg);
  ASSERT_EQ(records_with(first, Outcome::kSuccess).size(),
            first.records.size());

  cfg.supervisor.resume = true;
  fault::Scoped probe({.kind = fault::Kind::kNone, .max_fires = 0});
  const auto second = run_experiment(cfg);
  EXPECT_EQ(fault::phase_events(), 0) << "resume re-executed a unit";
  EXPECT_EQ(records_to_csv(second.records), records_to_csv(first.records));
  ASSERT_EQ(second.records.size(), first.records.size());
  std::size_t timelines = 0;
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    SCOPED_TRACE(first.records[i].system + " " + first.records[i].algorithm +
                 " " + first.records[i].phase);
    EXPECT_EQ(second.records[i].extra, first.records[i].extra);
    expect_same_timeline(second.records[i].timeline,
                         first.records[i].timeline);
    timelines += first.records[i].timeline.empty() ? 0 : 1;
  }
  // Every trial has one: GAP's and GraphMat's BFS and PageRank and
  // PowerGraph's PageRank (it ships no BFS), two roots each.
  EXPECT_EQ(timelines, 10u);
}

TEST_F(SupervisorDir, DefaultTeamJournalResumesOnlyUnderItsTeamSize) {
  // threads=0 means "all available": the fingerprint names the resolved
  // team, which replayed rows report, so a different team is refused.
  auto cfg = tiny_config();
  cfg.threads = 0;
  cfg.num_roots = 1;
  cfg.supervisor.journal_path = journal_path();
  auto two = cfg;
  two.threads = 2;
  {
    ThreadScope team(2);
    EXPECT_EQ(config_fingerprint(cfg), config_fingerprint(two));
    const auto first = run_experiment(cfg);
    ASSERT_FALSE(first.records.empty());
    EXPECT_EQ(first.records[0].threads, 2);
  }
  cfg.supervisor.resume = true;
  {
    ThreadScope team(1);
    EXPECT_NE(config_fingerprint(cfg), config_fingerprint(two));
    EXPECT_THROW((void)run_experiment(cfg), EpgsError);
  }
  ThreadScope team(2);
  fault::Scoped probe({.kind = fault::Kind::kNone, .max_fires = 0});
  const auto second = run_experiment(cfg);
  EXPECT_EQ(fault::phase_events(), 0);
  ASSERT_FALSE(second.records.empty());
  EXPECT_EQ(second.records[0].threads, 2);
}

TEST_F(SupervisorDir, ResumeRunsOnlyTheTornTrial) {
  auto cfg = tiny_config();
  cfg.supervisor.journal_path = journal_path();
  const auto first = run_experiment(cfg);

  // Chop the final "end" so the last journaled unit looks in-flight.
  std::ifstream in(journal_path());
  std::stringstream buf;
  buf << in.rdbuf();
  in.close();
  std::string text = buf.str();
  const auto last_end = text.rfind("\nend\n");
  ASSERT_NE(last_end, std::string::npos);
  std::ofstream(journal_path(), std::ios::trunc)
      << text.substr(0, last_end + 1);

  cfg.supervisor.resume = true;
  fault::Scoped probe(
      {.system = "GAP", .kind = fault::Kind::kNone, .max_fires = 0});
  const auto second = run_experiment(cfg);
  // Exactly one GAP unit re-ran: its rebuild + its BFS, two phase starts.
  EXPECT_EQ(fault::phase_events(), 2);
  EXPECT_EQ(second.records.size(), first.records.size());
  EXPECT_EQ(second.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 3u);
}

TEST_F(SupervisorDir, ResumeMayAddSystems) {
  auto cfg = tiny_config();
  cfg.num_roots = 2;
  cfg.supervisor.journal_path = journal_path();
  (void)run_experiment(cfg);

  cfg.systems = {"GAP", "GraphMat"};
  cfg.supervisor.resume = true;
  fault::Scoped probe(
      {.system = "GAP", .kind = fault::Kind::kNone, .max_fires = 0});
  const auto result = run_experiment(cfg);
  EXPECT_EQ(fault::phase_events(), 0) << "GAP was fully journaled";
  EXPECT_EQ(result.seconds_of("GraphMat", phase::kAlgorithm, "BFS").size(),
            2u);
}

TEST_F(SupervisorDir, InterruptedSweepStopsAndResumeRerunsTheUnit) {
  auto cfg = tiny_config();
  cfg.systems = {"GAP", "Graph500"};
  cfg.num_roots = 2;
  // A safety net only: the interrupt must end the hang long before it.
  cfg.supervisor.timeout_seconds = 30.0;
  cfg.supervisor.journal_path = journal_path();
  {
    // The first BFS unit hangs; Ctrl-C arrives while it spins.
    fault::Scoped hang(
        {.kind = fault::Kind::kHang, .max_fires = 1, .phase = "bfs"});
    std::thread operator_([] {
      for (int i = 0; i < 10000 && fault::fire_count() == 0; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      request_interrupt(SIGINT);
    });
    const auto first = run_experiment(cfg);
    operator_.join();
    EXPECT_EQ(fault::phase_events(), 1) << "a unit started after Ctrl-C";
    const auto interrupted = records_with(first, Outcome::kInterrupted);
    ASSERT_EQ(interrupted.size(), 1u);
    EXPECT_EQ(interrupted[0].system, "GAP");
    EXPECT_EQ(interrupted[0].trial, 0);
    EXPECT_TRUE(first.seconds_of("Graph500", phase::kAlgorithm, "BFS")
                    .empty());
  }
  reset_interrupt();

  // --resume re-runs the interrupted unit and the ones never started.
  cfg.supervisor.resume = true;
  fault::Scoped probe(
      {.kind = fault::Kind::kNone, .max_fires = 0, .phase = "bfs"});
  const auto second = run_experiment(cfg);
  EXPECT_EQ(fault::phase_events(), 4);
  EXPECT_TRUE(records_with(second, Outcome::kInterrupted).empty());
  EXPECT_EQ(second.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 2u);
  EXPECT_EQ(second.seconds_of("Graph500", phase::kAlgorithm, "BFS").size(),
            2u);
}

TEST_F(SupervisorDir, DnfOutcomesAreJournaledAndNotRetriedOnResume) {
  auto cfg = tiny_config();
  cfg.num_roots = 2;
  cfg.supervisor.timeout_seconds = 0.3;
  cfg.supervisor.journal_path = journal_path();
  {
    fault::Scoped fault({.system = "GAP",
                         .kind = fault::Kind::kHang,
                         .max_fires = 1,
                         .phase = "bfs"});
    const auto first = run_experiment(cfg);
    ASSERT_EQ(records_with(first, Outcome::kTimeout).size(), 1u);
  }
  // Resume: the timeout is settled history, not a retry candidate.
  cfg.supervisor.resume = true;
  fault::Scoped probe({.kind = fault::Kind::kNone, .max_fires = 0});
  const auto second = run_experiment(cfg);
  EXPECT_EQ(fault::phase_events(), 0);
  ASSERT_EQ(records_with(second, Outcome::kTimeout).size(), 1u);
  EXPECT_EQ(second.seconds_of("GAP", phase::kAlgorithm, "BFS").size(), 1u);
}

// --- outcome accounting --------------------------------------------------

TEST(OutcomeTaxonomy, NamesRoundTrip) {
  for (int i = 0; i < kNumOutcomes; ++i) {
    const auto o = static_cast<Outcome>(i);
    EXPECT_EQ(outcome_from_name(outcome_name(o)), o);
  }
  EXPECT_THROW((void)outcome_from_name("exploded"), EpgsError);
}

TEST(OutcomeTaxonomy, SummaryCountsPerSystem) {
  std::vector<RunRecord> records(5);
  records[0].system = "GAP";
  records[1].system = "GAP";
  records[1].outcome = Outcome::kTimeout;
  records[2].system = "GraphMat";
  records[3].system = "GraphMat";
  records[4].system = "GraphMat";
  records[4].outcome = Outcome::kCrash;
  const auto rows = outcome_summary(records);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].system, "GAP");
  EXPECT_EQ(rows[0].total(), 2);
  EXPECT_EQ(rows[0].failures(), 1);
  EXPECT_EQ(rows[1].system, "GraphMat");
  EXPECT_EQ(rows[1].failures(), 1);

  const auto table = render_outcome_table(rows);
  EXPECT_NE(table.find("system"), std::string::npos);
  EXPECT_NE(table.find("timeout"), std::string::npos);
  EXPECT_NE(table.find("crash"), std::string::npos);
  EXPECT_EQ(table.find("validation-failed"), std::string::npos)
      << "all-zero outcome columns are elided";
}

}  // namespace
}  // namespace epgs::harness
