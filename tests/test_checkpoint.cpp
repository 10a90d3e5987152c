// Mid-trial checkpoint/restore: the snapshot format survives round trips
// and rejects corruption; every system that registers iteration state
// produces bit-identical results when killed mid-kernel and resumed,
// demonstrated with deterministic cancel-at-iteration fault injection
// (and one real SIGKILL under fork isolation).
#include "core/checkpoint.hpp"

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/cancellation.hpp"
#include "core/error.hpp"
#include "core/parallel.hpp"
#include "harness/runner.hpp"
#include "harness/supervisor.hpp"
#include "systems/common/fault_injection.hpp"
#include "systems/common/registry.hpp"
#include "test_util.hpp"

namespace epgs {
namespace {

namespace fs = std::filesystem;

// --- serialization -------------------------------------------------------

TEST(Checkpoint, Crc32MatchesKnownVectorAndChains) {
  // The zlib/IEEE check value for "123456789".
  EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
  const std::uint32_t whole = crc32("abcdef", 6);
  EXPECT_EQ(crc32("def", 3, crc32("abc", 3)), whole);
}

TEST(Checkpoint, StateRoundTripsTaggedFields) {
  StateWriter w;
  w.put_u64(42);
  w.put_i64(-7);
  w.put_f64(0.15);
  w.put_str("bfs");
  w.put_vec(std::vector<double>{1.5, 2.5});
  w.put_vec(std::vector<vid_t>{});

  StateReader r(w.buffer());
  EXPECT_EQ(r.get_u64(), 42u);
  EXPECT_EQ(r.get_i64(), -7);
  EXPECT_EQ(r.get_f64(), 0.15);
  EXPECT_EQ(r.get_str(), "bfs");
  EXPECT_EQ(r.get_vec<double>(), (std::vector<double>{1.5, 2.5}));
  EXPECT_TRUE(r.get_vec<vid_t>().empty());
  EXPECT_TRUE(r.at_end());
}

TEST(Checkpoint, StateReaderRejectsMismatches) {
  StateWriter w;
  w.put_u64(1);
  w.put_vec(std::vector<double>{1.0});
  {
    StateReader r(w.buffer());
    EXPECT_THROW((void)r.get_f64(), EpgsError);  // tag mismatch
  }
  {
    StateReader r(w.buffer());
    (void)r.get_u64();
    EXPECT_THROW((void)r.get_vec<float>(), EpgsError);  // element size
  }
  {
    StateReader r(std::string_view(w.buffer()).substr(0, 4));
    EXPECT_THROW((void)r.get_u64(), EpgsError);  // truncated
  }
}

// --- session persistence -------------------------------------------------

class CheckpointDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("epgs_ckpt_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    fault::disarm_all();
    fs::remove_all(dir_);
  }

  [[nodiscard]] CheckpointConfig config(const std::string& key = "u|0",
                                        int every = 1) const {
    CheckpointConfig cfg;
    cfg.dir = dir_.string();
    cfg.unit_key = key;
    cfg.fingerprint = "fp";
    cfg.every_iterations = every;
    return cfg;
  }

  fs::path dir_;
};

/// A toy kernel state: a counter and a vector.
struct ToyState {
  std::uint64_t sum = 0;
  std::vector<double> vals;

  [[nodiscard]] StateDecl fields() {
    return [this](StateFields& f) {
      f.u64(sum);
      f.list(vals);
    };
  }
};

TEST_F(CheckpointDir, SnapshotRoundTripsAcrossSessions) {
  {
    CheckpointSession s(config());
    ToyState state;
    EXPECT_EQ(s.begin("toy", state.fields()), 0u);  // fresh start
    state.sum = 10;
    state.vals = {1.0, 2.0};
    EXPECT_TRUE(s.tick(3));  // cadence 1: saves at iteration 3
    EXPECT_EQ(s.saves(), 1);
    s.detach();  // simulate the kernel dying without end()
  }
  CheckpointSession s(config());
  ToyState state;
  EXPECT_EQ(s.begin("toy", state.fields()), 3u);
  EXPECT_EQ(s.resumed_from(), 3);
  EXPECT_EQ(state.sum, 10u);
  EXPECT_EQ(state.vals, (std::vector<double>{1.0, 2.0}));
  EXPECT_TRUE(s.warning().empty());
}

TEST_F(CheckpointDir, EndDeletesTheSnapshot) {
  CheckpointSession s(config());
  ToyState state;
  (void)s.begin("toy", state.fields());
  EXPECT_TRUE(s.tick(1));
  EXPECT_TRUE(s.snapshot_exists());
  s.end();
  EXPECT_FALSE(s.snapshot_exists());
}

TEST_F(CheckpointDir, CadenceSkipsIntermediateIterations) {
  CheckpointSession s(config("u|0", /*every=*/3));
  ToyState state;
  (void)s.begin("toy", state.fields());
  EXPECT_FALSE(s.tick(0));  // nothing completed: never save
  EXPECT_FALSE(s.tick(1));
  EXPECT_FALSE(s.tick(2));
  EXPECT_TRUE(s.tick(3));
  EXPECT_FALSE(s.tick(4));
  EXPECT_TRUE(s.tick(6));
  EXPECT_EQ(s.saves(), 2);
  EXPECT_EQ(s.last_saved_iteration(), 6u);
}

TEST_F(CheckpointDir, SaveNowSkipsWhenIterationAlreadyOnDisk) {
  CheckpointSession s(config());
  ToyState state;
  (void)s.begin("toy", state.fields());
  EXPECT_TRUE(s.tick(2));
  s.save_now();  // iteration 2 already durable: no second write
  EXPECT_EQ(s.saves(), 1);
}

TEST_F(CheckpointDir, CorruptSnapshotInvalidatedWithWarning) {
  {
    CheckpointSession s(config());
    ToyState state;
    (void)s.begin("toy", state.fields());
    state.sum = 5;
    EXPECT_TRUE(s.tick(2));
    s.detach();
  }
  const fs::path p = CheckpointSession::path_for(dir_, "u|0");
  ASSERT_TRUE(fs::exists(p));
  {
    // Flip one payload byte: the CRC must catch it.
    std::fstream f(p, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-5, std::ios::end);
    f.put('\xFF');
  }
  CheckpointSession s(config());
  ToyState state;
  EXPECT_EQ(s.begin("toy", state.fields()), 0u);  // full restart
  EXPECT_EQ(state.sum, 0u);              // nothing restored
  EXPECT_FALSE(s.warning().empty());
  EXPECT_FALSE(fs::exists(p)) << "invalid snapshot must be deleted";
}

TEST_F(CheckpointDir, TrailingFieldInvalidatedWithoutRestoring) {
  // A snapshot from a build of the kernel that declared one field more:
  // the fields it shares parse, but the leftover bytes must reject it
  // before any of them reaches the kernel.
  {
    CheckpointSession s(config());
    ToyState state;
    state.sum = 7;
    state.vals = {2.0};
    std::uint64_t extra = 1;
    const StateDecl toy = state.fields();
    (void)s.begin("toy", [&](StateFields& f) {
      toy(f);
      f.u64(extra);
    });
    EXPECT_TRUE(s.tick(2));
    s.detach();
  }
  CheckpointSession s(config());
  ToyState state;
  EXPECT_EQ(s.begin("toy", state.fields()), 0u);
  EXPECT_EQ(s.resumed_from(), -1);
  EXPECT_EQ(state.sum, 0u);
  EXPECT_TRUE(state.vals.empty());
  EXPECT_FALSE(s.warning().empty());
}

TEST_F(CheckpointDir, TornSnapshotInvalidated) {
  {
    CheckpointSession s(config());
    ToyState state;
    (void)s.begin("toy", state.fields());
    state.vals.assign(64, 1.0);
    EXPECT_TRUE(s.tick(1));
    s.detach();
  }
  const fs::path p = CheckpointSession::path_for(dir_, "u|0");
  fs::resize_file(p, fs::file_size(p) / 2);
  CheckpointSession s(config());
  ToyState state;
  EXPECT_EQ(s.begin("toy", state.fields()), 0u);
  EXPECT_FALSE(s.warning().empty());
}

TEST_F(CheckpointDir, FingerprintMismatchForcesFullRestart) {
  {
    CheckpointSession s(config());
    ToyState state;
    (void)s.begin("toy", state.fields());
    EXPECT_TRUE(s.tick(4));
    s.detach();
  }
  auto cfg = config();
  cfg.fingerprint = "different-experiment";
  CheckpointSession s(cfg);
  ToyState state;
  EXPECT_EQ(s.begin("toy", state.fields()), 0u);
  EXPECT_NE(s.warning().find("fingerprint"), std::string::npos)
      << "warning was: " << s.warning();
}

TEST_F(CheckpointDir, StageMismatchForcesFullRestart) {
  {
    CheckpointSession s(config());
    ToyState state;
    (void)s.begin("pagerank", state.fields());
    EXPECT_TRUE(s.tick(4));
    s.detach();
  }
  CheckpointSession s(config());
  ToyState state;
  EXPECT_EQ(s.begin("bfs", state.fields()), 0u);
  EXPECT_FALSE(s.warning().empty());
}

// --- torn-publish window -------------------------------------------------
//
// A process can die *between* the durable tmp write and the rename that
// publishes it (crash, SIGKILL, power cut). The invariant: the snapshot
// path afterwards holds either nothing or the previous valid snapshot —
// never a torn frame that peek_iteration() accepts. A real SIGKILL in a
// fork child exercises the exact window via the publish hook.

TEST_F(CheckpointDir, KillAtFirstPublishLeavesNoSnapshot) {
  const auto cfg = config("pub|1");
  const pid_t pid = ::fork();
  if (pid == 0) {
    fault::arm_kill_at_publish({1, {}});
    CheckpointSession s(cfg);
    ToyState state;
    (void)s.begin("toy", state.fields());
    state.sum = 1;
    (void)s.tick(1);  // dies between the tmp fsync and the rename
    ::_exit(0);       // unreachable: the hook SIGKILLed us
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const fs::path p = CheckpointSession::path_for(dir_, "pub|1");
  EXPECT_EQ(CheckpointSession::peek_iteration(p), -1)
      << "the unpublished tmp write must not be visible as a snapshot";
  CheckpointSession s(cfg);
  ToyState state;
  EXPECT_EQ(s.begin("toy", state.fields()), 0u)
      << "restart must be from scratch";
}

TEST_F(CheckpointDir, KillAtSecondPublishKeepsPriorValidSnapshot) {
  const auto cfg = config("pub|2");
  const pid_t pid = ::fork();
  if (pid == 0) {
    fault::arm_kill_at_publish({2, {}});
    CheckpointSession s(cfg);
    ToyState state;
    (void)s.begin("toy", state.fields());
    state.sum = 1;
    state.vals = {1.5};
    (void)s.tick(1);  // publish 1 lands
    state.sum = 99;
    state.vals = {9.9, 9.9};
    (void)s.tick(2);  // dies in the window: iteration 2 never publishes
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  const fs::path p = CheckpointSession::path_for(dir_, "pub|2");
  ASSERT_EQ(CheckpointSession::peek_iteration(p), 1)
      << "the previous published snapshot must survive the torn publish";
  CheckpointSession s(cfg);
  ToyState state;
  EXPECT_EQ(s.begin("toy", state.fields()), 1u);
  EXPECT_EQ(state.sum, 1u);
  EXPECT_EQ(state.vals, (std::vector<double>{1.5}))
      << "restored state must be the iteration-1 frame, not the torn one";
}

TEST_F(CheckpointDir, PathForSanitizesAndDisambiguatesKeys) {
  const auto a = CheckpointSession::path_for(dir_, "GAP|BFS|0");
  const auto b = CheckpointSession::path_for(dir_, "GAP|BFS/0");
  EXPECT_NE(a, b) << "different keys must map to different files";
  EXPECT_EQ(a.parent_path(), dir_);
  EXPECT_EQ(a.extension(), ".ckpt");
  EXPECT_EQ(a.filename().string().find('|'), std::string::npos);
  EXPECT_EQ(b.filename().string().find('/'), std::string::npos);
}

// --- kill/resume equivalence across systems ------------------------------
//
// The correctness bar: a kernel cancelled at a deterministic iteration
// boundary (a stand-in for SIGKILL/timeout — the snapshot written is the
// same) and then resumed must produce bit-identical output and work
// counters to an uninterrupted run.

/// Run `alg` on a fresh instance of `system` with no interference.
template <typename Alg>
auto run_uninterrupted(const std::string& system, const EdgeList& el,
                       Alg&& alg) {
  auto sys = make_system(system);
  sys->set_edges(el);
  sys->build();
  auto result = alg(*sys);
  const auto& entry = sys->log().entries().back();
  return std::make_pair(std::move(result), entry.work);
}

/// Cancel the kernel at `kill_iter`, then resume it from the snapshot on
/// a fresh instance; returns the resumed result + work counters and
/// asserts the resume actually happened.
template <typename Alg>
auto run_killed_and_resumed(const std::string& system, const EdgeList& el,
                            const CheckpointConfig& cfg,
                            std::uint64_t kill_iter, Alg&& alg) {
  {
    auto sys = make_system(system);
    sys->set_edges(el);
    sys->build();
    CancellationToken token;
    sys->set_cancellation(&token);
    CheckpointSession session(cfg);
    sys->set_checkpoint_session(&session);
    fault::arm_cancel_at_iteration({system, kill_iter});
    EXPECT_THROW((void)alg(*sys), CancelledError);
    fault::disarm_cancel_at_iteration();
    session.detach();
    EXPECT_TRUE(session.snapshot_exists())
        << system << " left no snapshot behind";
  }
  auto sys = make_system(system);
  sys->set_edges(el);
  sys->build();
  CheckpointSession session(cfg);
  sys->set_checkpoint_session(&session);
  auto result = alg(*sys);
  EXPECT_EQ(session.resumed_from(),
            static_cast<std::int64_t>(kill_iter))
      << system << " did not resume from the snapshot";
  EXPECT_FALSE(session.snapshot_exists())
      << system << " must delete the snapshot after completing";
  const auto& entry = sys->log().entries().back();
  return std::make_pair(std::move(result), entry.work);
}

class KillResume : public CheckpointDir {
 protected:
  void expect_same_work(const WorkStats& a, const WorkStats& b,
                        const std::string& system) {
    EXPECT_EQ(a.edges_processed, b.edges_processed) << system;
    EXPECT_EQ(a.vertex_updates, b.vertex_updates) << system;
    EXPECT_EQ(a.bytes_touched, b.bytes_touched) << system;
  }
};

TEST_F(KillResume, PageRankBitIdenticalOnEverySystem) {
  const EdgeList el = test::line_graph(96);
  const PageRankParams params;
  const auto alg = [&](System& s) { return s.pagerank(params); };
  for (const std::string system :
       {"GAP", "Ligra", "GraphMat", "GraphBIG", "PowerGraph"}) {
    const auto [base, base_work] = run_uninterrupted(system, el, alg);
    ASSERT_GT(base.iterations, 4) << system << ": graph converges too "
                                     "fast to test a mid-kernel kill";
    const auto [resumed, resumed_work] = run_killed_and_resumed(
        system, el, config("pr|" + system), /*kill_iter=*/3, alg);
    EXPECT_EQ(resumed.iterations, base.iterations) << system;
    ASSERT_EQ(resumed.rank.size(), base.rank.size()) << system;
    EXPECT_EQ(std::memcmp(resumed.rank.data(), base.rank.data(),
                          base.rank.size() * sizeof(double)),
              0)
        << system << ": resumed PageRank is not bit-identical";
    expect_same_work(base_work, resumed_work, system);
  }
}

TEST_F(CheckpointDir, RejectedPageRankSnapshotLeavesFreshStateOnEverySystem) {
  // A CRC-valid snapshot under the kernel's own unit, stage and
  // fingerprint whose rank vector fits but whose next field carries the
  // wrong tag: it must be rejected before the ranks reach the kernel, so
  // the full restart equals an uninterrupted run.
  ThreadScope scope(1);
  const EdgeList el = test::line_graph(96);
  const auto alg = [](System& s) { return s.pagerank(); };
  for (const std::string system :
       {"GAP", "Ligra", "GraphMat", "GraphBIG", "PowerGraph"}) {
    const auto [base, base_work] = run_uninterrupted(system, el, alg);
    const CheckpointConfig cfg = config("tag|" + system);
    {
      CheckpointSession planter(cfg);
      std::vector<double> ranks(base.rank.size(), 0.5);
      std::vector<float> float_ranks(base.rank.size(), 0.5f);
      std::int64_t iterations = 3;  // 'i' where the kernel declares 'u'
      (void)planter.begin("pagerank", [&](StateFields& f) {
        if (system == "GraphMat") {
          f.per_vertex(float_ranks);
        } else {
          f.per_vertex(ranks);
        }
        f.i64(iterations);
      });
      ASSERT_TRUE(planter.tick(3)) << system;
      planter.detach();
    }
    auto sys = make_system(system);
    sys->set_edges(el);
    sys->build();
    CheckpointSession session(cfg);
    sys->set_checkpoint_session(&session);
    const PageRankResult r = alg(*sys);
    EXPECT_EQ(session.resumed_from(), -1) << system;
    EXPECT_FALSE(session.warning().empty()) << system;
    EXPECT_EQ(r.iterations, base.iterations) << system;
    ASSERT_EQ(r.rank.size(), base.rank.size()) << system;
    EXPECT_EQ(std::memcmp(r.rank.data(), base.rank.data(),
                          base.rank.size() * sizeof(double)),
              0)
        << system << ": a rejected snapshot leaked into the restart";
  }
}

TEST_F(CheckpointDir, SweepWarnsOnceNamingTheUnitOfARejectedSnapshot) {
  // A snapshot under trial 0's unit, stage and fingerprint whose field
  // list does not match the kernel's: the sweep restarts the unit and
  // reports the rejection once, naming the unit; trial 1 stays quiet.
  harness::ExperimentConfig cfg;
  cfg.graph.kind = harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.graph.edgefactor = 8;
  cfg.systems = {"GAP"};
  cfg.algorithms = {harness::Algorithm::kPageRank};
  cfg.num_roots = 2;
  cfg.threads = 1;
  cfg.supervisor.checkpoint_dir = dir_.string();
  CheckpointConfig planted = config("GAP|PageRank|0");
  planted.fingerprint = harness::config_fingerprint(cfg);
  {
    CheckpointSession planter(planted);
    std::int64_t junk = 7;
    (void)planter.begin("pagerank", [&](StateFields& f) { f.i64(junk); });
    ASSERT_TRUE(planter.tick(1));
    planter.detach();
  }

  const harness::ExperimentResult result = harness::run_experiment(cfg);
  ASSERT_EQ(result.warnings.size(), 1u);
  EXPECT_TRUE(result.warnings[0].starts_with(
      "GAP|PageRank|0: checkpoint snapshot invalidated"))
      << result.warnings[0];
  for (const auto& r : result.records) {
    EXPECT_EQ(r.outcome, Outcome::kSuccess) << r.system << " " << r.phase;
  }
}

TEST_F(CheckpointDir, TornSnapshotWarnsTheSameLiveIsolatedAndReplayed) {
  // A torn snapshot under trial 0's unit: the warning travels in the
  // unit's report, so an isolated child raises the same warning as an
  // in-process run, and a fully journaled resume repeats it.
  harness::ExperimentConfig cfg;
  cfg.graph.kind = harness::GraphSpec::Kind::kKronecker;
  cfg.graph.scale = 6;
  cfg.graph.edgefactor = 8;
  cfg.systems = {"GAP"};
  cfg.algorithms = {harness::Algorithm::kBfs, harness::Algorithm::kPageRank};
  cfg.num_roots = 2;
  cfg.threads = 1;
  cfg.supervisor.checkpoint_dir = (dir_ / "ckpt").string();
  const auto plant_torn = [&] {
    CheckpointConfig planted = config("GAP|PageRank|0");
    planted.dir = cfg.supervisor.checkpoint_dir;
    planted.fingerprint = harness::config_fingerprint(cfg);
    std::vector<double> ranks(64, 0.5);
    {
      CheckpointSession planter(planted);
      (void)planter.begin("pagerank",
                          [&](StateFields& f) { f.per_vertex(ranks); });
      ASSERT_TRUE(planter.tick(1));
      planter.detach();
    }
    const fs::path path =
        CheckpointSession::path_for(planted.dir, planted.unit_key);
    fs::resize_file(path, fs::file_size(path) / 2);
  };

  plant_torn();
  const auto live = harness::run_experiment(cfg).warnings;
  ASSERT_EQ(live.size(), 1u);
  EXPECT_TRUE(live[0].starts_with(
      "GAP|PageRank|0: checkpoint snapshot invalidated"))
      << live[0];

  plant_torn();
  cfg.supervisor.isolate = true;
  cfg.supervisor.journal_path = (dir_ / "journal").string();
  EXPECT_EQ(harness::run_experiment(cfg).warnings, live);

  // Every unit is journaled and the torn snapshot is gone: the warning
  // can only come from the replayed report.
  EXPECT_FALSE(fs::exists(CheckpointSession::path_for(
      cfg.supervisor.checkpoint_dir, "GAP|PageRank|0")));
  cfg.supervisor.resume = true;
  EXPECT_EQ(harness::run_experiment(cfg).warnings, live);
}

TEST_F(KillResume, BfsBitIdenticalOnFrontierSystems) {
  // Single-threaded: parent selection under concurrent CAS is tie-broken
  // by timing at >1 thread, so only the 1-thread tree is deterministic.
  ThreadScope scope(1);
  const EdgeList el = test::line_graph(64);
  const auto alg = [](System& s) { return s.bfs(0); };
  for (const std::string system : {"GAP", "Graph500", "Ligra"}) {
    const auto [base, base_work] = run_uninterrupted(system, el, alg);
    const auto [resumed, resumed_work] = run_killed_and_resumed(
        system, el, config("bfs|" + system), /*kill_iter=*/3, alg);
    EXPECT_EQ(resumed.parent, base.parent)
        << system << ": resumed BFS parent tree differs";
    expect_same_work(base_work, resumed_work, system);
  }
}

TEST_F(KillResume, SsspBitIdenticalOnGap) {
  ThreadScope scope(1);
  const EdgeList el = test::line_graph(64, /*weighted=*/true);
  const auto alg = [](System& s) { return s.sssp(0); };
  const auto [base, base_work] = run_uninterrupted("GAP", el, alg);
  const auto [resumed, resumed_work] = run_killed_and_resumed(
      "GAP", el, config("sssp|GAP"), /*kill_iter=*/2, alg);
  EXPECT_EQ(std::memcmp(resumed.dist.data(), base.dist.data(),
                        base.dist.size() * sizeof(weight_t)),
            0)
      << "resumed SSSP distances are not bit-identical";
  expect_same_work(base_work, resumed_work, "GAP");
}

TEST_F(KillResume, CancelWithoutSessionStillJustCancels) {
  // The fault hooks must not require a checkpoint session.
  auto sys = make_system("GAP");
  sys->set_edges(test::line_graph(64));
  sys->build();
  CancellationToken token;
  sys->set_cancellation(&token);
  fault::arm_cancel_at_iteration({"GAP", 2});
  EXPECT_THROW((void)sys->pagerank(), CancelledError);
  fault::disarm_cancel_at_iteration();
}

TEST(KillSpec, EnvSpecRejectsMalformedIteration) {
  // EPGS_KILL_AT_CKPT=[system:]iteration: "-1" must not wrap to 2^64-1.
  for (const char* spec : {"GAP:-1", "GAP:3x", "GAP:+3", "GAP: 3", "GAP:"}) {
    ::setenv("EPGS_KILL_AT_CKPT", spec, 1);
    EXPECT_THROW(fault::arm_kill_from_env(), EpgsError) << spec;
  }
  ::setenv("EPGS_KILL_AT_CKPT", "GAP:3", 1);
  EXPECT_NO_THROW(fault::arm_kill_from_env());
  fault::disarm_kill_at_checkpoint();
  ::unsetenv("EPGS_KILL_AT_CKPT");
}

// --- supervised retry from a snapshot ------------------------------------

TEST_F(KillResume, SupervisorRetriesSigkilledChildFromSnapshot) {
  // The production failure mode end to end: the fork child is SIGKILLed
  // the moment the snapshot covering iteration 3 is durable; the retry
  // (granted because the snapshot exists) resumes and succeeds.
  const EdgeList el = test::line_graph(96);
  harness::SupervisorOptions opts;
  opts.isolate = true;
  opts.max_retries = 1;
  opts.backoff_base_seconds = 0.0;
  opts.backoff_max_seconds = 0.0;
  CheckpointSession session(config("kill|GAP"));
  fault::arm_kill_at_checkpoint({"GAP", 3});
  Xoshiro256 rng(1);
  const harness::TrialReport rep = harness::supervise_unit(
      [&](CancellationToken& token) {
        auto sys = make_system("GAP");
        sys->set_edges(el);
        sys->build();
        sys->set_cancellation(&token);
        sys->set_checkpoint_session(&session);
        (void)sys->pagerank();
        sys->set_checkpoint_session(nullptr);
        return PhaseLog{};
      },
      opts, rng, &session);
  fault::disarm_kill_at_checkpoint();
  EXPECT_EQ(rep.outcome, Outcome::kSuccess) << rep.message;
  EXPECT_EQ(rep.attempts, 2);
  EXPECT_EQ(rep.resumed_from_iter, 3);
}

TEST_F(KillResume, NoSnapshotMeansNoRetryForCrashes) {
  harness::SupervisorOptions opts;
  opts.max_retries = 2;
  CheckpointSession session(config("nosnap"));
  Xoshiro256 rng(1);
  int calls = 0;
  const harness::TrialReport rep = harness::supervise_unit(
      [&](CancellationToken&) -> PhaseLog {
        ++calls;
        throw EpgsError("boom");
      },
      opts, rng, &session);
  EXPECT_EQ(rep.outcome, Outcome::kCrash);
  EXPECT_EQ(calls, 1) << "a crash without a snapshot must not retry";
}

}  // namespace
}  // namespace epgs
