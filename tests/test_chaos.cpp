// Chaos harness: seeded schedule generation is deterministic and obeys
// the recoverability containment rules, the spec text round-trips
// exactly and rejects malformed input, ddmin shrinks to a 1-minimal
// violating subset, and the full executor holds the byte-identity
// invariant on a real (tiny) sweep.
#include "harness/chaos/chaos.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/error.hpp"
#include "harness/chaos/schedule.hpp"
#include "harness/chaos/shrink.hpp"

namespace epgs::harness::chaos {
namespace {

namespace fs = std::filesystem;

GeneratorConfig small_targets() {
  GeneratorConfig cfg;
  cfg.systems = {"GAP", "GraphMat"};
  cfg.phases = {"bfs", "pagerank"};
  cfg.validated_phases = {"bfs"};
  cfg.checkpoint_kinds = true;
  cfg.fs_path_substr = "itertrace";
  return cfg;
}

// --- generator -----------------------------------------------------------

TEST(ChaosSchedule, SameSeedSameScheduleDifferentSeedDiffers) {
  const auto cfg = small_targets();
  const auto a = generate_schedule(42, 4, cfg);
  const auto b = generate_schedule(42, 4, cfg);
  EXPECT_EQ(to_spec(a), to_spec(b));

  const auto c = generate_schedule(43, 4, cfg);
  EXPECT_NE(to_spec(a), to_spec(c));
}

TEST(ChaosSchedule, GeneratedEventsObeyContainmentRules) {
  const auto cfg = small_targets();
  const auto sched = generate_schedule(7, 8, cfg);
  ASSERT_FALSE(sched.events.empty());
  for (const ChaosEvent& e : sched.events) {
    EXPECT_GE(e.round, 0);
    EXPECT_LT(e.round, sched.rounds);
    switch (e.kind) {
      case EventKind::kFsFault:
        // The fs shim has no once-marker; recoverability comes from the
        // target's degradation path, never from fire-once semantics.
        EXPECT_FALSE(e.once);
        EXPECT_EQ(e.path_substr, cfg.fs_path_substr);
        break;
      case EventKind::kKillAtCheckpoint:
      case EventKind::kKillAtPublish:
        EXPECT_TRUE(e.once);
        EXPECT_GE(e.at, 1);
        EXPECT_LE(e.at, 3);
        break;
      case EventKind::kWrongOutput:
        // Only per-trial-validated phases can catch a corruption.
        EXPECT_NE(std::find(cfg.validated_phases.begin(),
                            cfg.validated_phases.end(), e.phase),
                  cfg.validated_phases.end())
            << describe(e);
        [[fallthrough]];
      default:
        // Phase kinds: fork children count phase starts from zero, so
        // anything but at=1 would never fire under isolation.
        EXPECT_EQ(e.at, 1) << describe(e);
        EXPECT_TRUE(e.once);
        EXPECT_NE(std::find(cfg.phases.begin(), cfg.phases.end(), e.phase),
                  cfg.phases.end())
            << describe(e);
        break;
    }
  }
}

TEST(ChaosSchedule, WrongOutputExcludedWithoutValidatedPhases) {
  auto cfg = small_targets();
  cfg.validated_phases.clear();
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    for (const ChaosEvent& e : generate_schedule(seed, 6, cfg).events) {
      EXPECT_NE(e.kind, EventKind::kWrongOutput) << "seed " << seed;
    }
  }
}

// --- spec text -----------------------------------------------------------

TEST(ChaosSpec, RoundTripsExactly) {
  const auto sched = generate_schedule(99, 5, small_targets());
  const std::string text = to_spec(sched);
  const auto parsed = parse_spec(text);
  EXPECT_EQ(parsed.seed, sched.seed);
  EXPECT_EQ(parsed.rounds, sched.rounds);
  EXPECT_EQ(to_spec(parsed), text);
}

TEST(ChaosSpec, ParsesHandWrittenEvent) {
  const auto s = parse_spec(
      "epgs-chaos-v1\n"
      "seed 7\n"
      "rounds 2\n"
      "event 1|fs|||3|2|write|28|itertrace|0\n"
      "event 0|segv|GAP|bfs|1|1|write|28||1\n");
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].kind, EventKind::kFsFault);
  EXPECT_EQ(s.events[0].at, 3);
  EXPECT_EQ(s.events[0].fires, 2);
  EXPECT_EQ(s.events[0].fs_errno, 28);
  EXPECT_EQ(s.events[0].path_substr, "itertrace");
  EXPECT_FALSE(s.events[0].once);
  EXPECT_EQ(s.events[1].kind, EventKind::kSegv);
  EXPECT_EQ(s.events[1].system, "GAP");
  EXPECT_EQ(s.events[1].phase, "bfs");
  EXPECT_TRUE(s.events[1].once);
}

TEST(ChaosSpec, RejectsMalformedInput) {
  const auto expect_reject = [](const std::string& text) {
    EXPECT_THROW((void)parse_spec(text), EpgsError) << text;
  };
  // A replay spec is user input: every malformed shape must be a typed
  // error, never a silently-misread schedule.
  expect_reject("");                                      // no header
  expect_reject("epgs-chaos-v2\nseed 1\nrounds 1\n");     // wrong header
  expect_reject("epgs-chaos-v1\nrounds 1\n");             // missing seed
  expect_reject("epgs-chaos-v1\nseed 1\n");               // missing rounds
  expect_reject("epgs-chaos-v1\nseed 1\nrounds 0\n");     // rounds < 1
  expect_reject("epgs-chaos-v1\nseed 1x\nrounds 1\n");    // trailing junk
  expect_reject("epgs-chaos-v1\nseed 1\nrounds 1\nwat\n");
  const std::string head = "epgs-chaos-v1\nseed 1\nrounds 1\n";
  expect_reject(head + "event 0|segv|GAP|bfs|1|1|write|28|\n");  // 9 fields
  expect_reject(head + "event 0|segv|GAP|bfs|1|1|write|28||1|x\n");  // 11
  expect_reject(head + "event 0|nuke|GAP|bfs|1|1|write|28||1\n");  // kind
  expect_reject(head + "event 0|segv|GAP|bfs|1x|1|write|28||1\n");  // at
  expect_reject(head + "event 0|segv|GAP|bfs|0|1|write|28||1\n");  // at < 1
  expect_reject(head + "event 0|segv|GAP|bfs|1|0|write|28||1\n");  // fires
  expect_reject(head + "event 0|segv|GAP|bfs|1|1|write|28||2\n");  // once
  expect_reject(head + "event 1|segv|GAP|bfs|1|1|write|28||1\n");  // round
  expect_reject(head + "event -1|segv|GAP|bfs|1|1|write|28||1\n");
  expect_reject(head + "event 0|segv|GAP|bfs|1|1|chmod|28||1\n");  // op
}

// --- ddmin ---------------------------------------------------------------

std::vector<ChaosEvent> synthetic_events(int n) {
  std::vector<ChaosEvent> events;
  for (int i = 0; i < n; ++i) {
    ChaosEvent e;
    e.round = 0;
    e.kind = EventKind::kTransient;
    e.system = "E" + std::to_string(i);  // identity tag for the probes
    events.push_back(e);
  }
  return events;
}

bool contains(const std::vector<ChaosEvent>& events, const char* tag) {
  return std::any_of(events.begin(), events.end(),
                     [&](const ChaosEvent& e) { return e.system == tag; });
}

TEST(ChaosShrink, FindsTheSingleGuiltyEvent) {
  const auto failing = synthetic_events(8);
  const auto res = shrink_events(
      failing, [](const std::vector<ChaosEvent>& s) { return contains(s, "E5"); });
  ASSERT_EQ(res.minimal.size(), 1u);
  EXPECT_EQ(res.minimal[0].system, "E5");
  EXPECT_GT(res.probes, 0);
}

TEST(ChaosShrink, FindsAnInteractingPair) {
  const auto failing = synthetic_events(9);
  const auto res = shrink_events(failing, [](const std::vector<ChaosEvent>& s) {
    return contains(s, "E1") && contains(s, "E7");
  });
  ASSERT_EQ(res.minimal.size(), 2u);
  EXPECT_EQ(res.minimal[0].system, "E1");  // original order preserved
  EXPECT_EQ(res.minimal[1].system, "E7");
}

TEST(ChaosShrink, SingleEventIsAlreadyMinimal) {
  const auto failing = synthetic_events(1);
  const auto res = shrink_events(
      failing, [](const std::vector<ChaosEvent>&) { return true; });
  ASSERT_EQ(res.minimal.size(), 1u);
  EXPECT_EQ(res.probes, 0) << "a 1-event schedule needs no probes";
}

TEST(ChaosShrink, ResultIsOneMinimal) {
  // Violation needs any 3 of the first 4 events: the minimal subset has
  // exactly 3 elements and removing any one of them must pass.
  const auto failing = synthetic_events(6);
  const auto probe = [](const std::vector<ChaosEvent>& s) {
    int hits = 0;
    for (const char* tag : {"E0", "E1", "E2", "E3"}) {
      if (contains(s, tag)) ++hits;
    }
    return hits >= 3;
  };
  const auto res = shrink_events(failing, probe);
  ASSERT_EQ(res.minimal.size(), 3u);
  EXPECT_TRUE(probe(res.minimal));
  for (std::size_t drop = 0; drop < res.minimal.size(); ++drop) {
    auto sub = res.minimal;
    sub.erase(sub.begin() + static_cast<std::ptrdiff_t>(drop));
    EXPECT_FALSE(probe(sub)) << "not 1-minimal: event " << drop
                             << " is removable";
  }
}

// --- executor end to end -------------------------------------------------

class ChaosRun : public ::testing::Test {
 protected:
  void SetUp() override {
    work_ = fs::temp_directory_path() /
            ("epgs_chaos_" + std::to_string(::getpid()));
    fs::remove_all(work_);
    fs::create_directories(work_);
  }
  void TearDown() override { fs::remove_all(work_); }

  /// The smallest real sweep that exercises validation + checkpoints:
  /// one frontier system, BFS (validated per trial), two roots.
  [[nodiscard]] static ExperimentConfig tiny_config() {
    ExperimentConfig cfg;
    cfg.graph.kind = GraphSpec::Kind::kKronecker;
    cfg.graph.scale = 6;
    cfg.graph.edgefactor = 8;
    cfg.systems = {"GAP"};
    cfg.algorithms = {Algorithm::kBfs};
    cfg.num_roots = 2;
    cfg.threads = 1;
    return cfg;
  }

  fs::path work_;
};

TEST_F(ChaosRun, ReplayedScheduleHoldsTheInvariant) {
  ChaosOptions opts;
  opts.work_dir = work_.string();
  opts.max_retries = 2;
  // One round, one transient fault on the only unit family: the retry
  // must absorb it and the stripped CSV must match the control exactly.
  opts.replay_spec =
      "epgs-chaos-v1\n"
      "seed 5\n"
      "rounds 1\n"
      "event 0|transient|GAP|bfs|1|1|write|28||1\n";
  const ChaosReport rep = run_chaos(tiny_config(), opts);
  EXPECT_FALSE(rep.violated);
  ASSERT_EQ(rep.rounds.size(), 1u);
  EXPECT_TRUE(rep.rounds[0].csv_match) << rep.rounds[0].detail;
  EXPECT_TRUE(rep.rounds[0].journal_clean) << rep.rounds[0].detail;
  EXPECT_FALSE(render_chaos_report(rep).empty());
}

TEST_F(ChaosRun, RecoveredUnitIsReportedOnce) {
  ChaosOptions opts;
  opts.work_dir = work_.string();
  opts.max_retries = 2;
  // A recovered PageRank unit yields several rows (its kernel phase and
  // the phases around it), each carrying the unit's provenance; the round
  // must still name the unit once.
  opts.replay_spec =
      "epgs-chaos-v1\n"
      "seed 5\n"
      "rounds 1\n"
      "event 0|transient|GAP|pagerank|1|1|write|28||1\n";
  ExperimentConfig cfg = tiny_config();
  cfg.algorithms = {Algorithm::kPageRank};
  const ChaosReport rep = run_chaos(cfg, opts);
  ASSERT_EQ(rep.rounds.size(), 1u);
  EXPECT_TRUE(rep.rounds[0].csv_match) << rep.rounds[0].detail;
  std::vector<std::string> recovered;
  for (const std::string& obs : rep.rounds[0].observations) {
    if (obs.starts_with("recovered: ")) recovered.push_back(obs);
  }
  ASSERT_EQ(recovered.size(), 1u) << render_chaos_report(rep);
  EXPECT_NE(recovered[0].find("GAP/PageRank trial 0"), std::string::npos)
      << recovered[0];
}

TEST_F(ChaosRun, ForcedViolationIsDetectedAndShrinksToOneEvent) {
  ChaosOptions opts;
  opts.work_dir = work_.string();
  opts.max_retries = 1;
  opts.shrink = true;
  opts.force_violation = true;
  // The benign transient plus the forced persistent wrong-output: ddmin
  // must discard the recoverable event and keep the violating one.
  opts.replay_spec =
      "epgs-chaos-v1\n"
      "seed 5\n"
      "rounds 1\n"
      "event 0|transient|GAP|bfs|1|1|write|28||1\n";
  const ChaosReport rep = run_chaos(tiny_config(), opts);
  EXPECT_TRUE(rep.violated);
  ASSERT_LE(rep.minimal.size(), 2u);
  ASSERT_FALSE(rep.minimal.empty());
  EXPECT_EQ(rep.minimal[0].kind, EventKind::kWrongOutput);
  EXPECT_FALSE(rep.minimal[0].once);
  ASSERT_FALSE(rep.minimal_spec_path.empty());
  EXPECT_TRUE(fs::exists(rep.minimal_spec_path));
  // The written reproducer must itself parse — it feeds --replay.
  std::ifstream in(rep.minimal_spec_path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto replayed = parse_spec(ss.str());
  EXPECT_EQ(replayed.events.size(), rep.minimal.size());
}

}  // namespace
}  // namespace epgs::harness::chaos
