#include "harness/chaos/schedule.hpp"

#include <algorithm>
#include <sstream>

#include "core/error.hpp"
#include "core/rng.hpp"
#include "core/text_scan.hpp"

namespace epgs::harness::chaos {
namespace {

constexpr std::string_view kCtx = "chaos spec";

struct KindName {
  EventKind kind;
  std::string_view name;
};

constexpr KindName kKindNames[] = {
    {EventKind::kHang, "hang"},
    {EventKind::kTransient, "transient"},
    {EventKind::kError, "error"},
    {EventKind::kAbort, "abort"},
    {EventKind::kSegv, "segv"},
    {EventKind::kBadAlloc, "badalloc"},
    {EventKind::kWrongOutput, "wrong-output"},
    {EventKind::kKillAtCheckpoint, "kill-ckpt"},
    {EventKind::kKillAtPublish, "kill-publish"},
    {EventKind::kFsFault, "fs"},
};

/// The plan families the injector can hold simultaneously; a round arms
/// at most one event per family.
enum class Family { kPhase, kKillCkpt, kKillPublish, kFs };

/// Split on '|' keeping empty fields (system/phase/path may be empty).
std::vector<std::string> split_fields(std::string_view line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const std::size_t bar = line.find('|', start);
    if (bar == std::string_view::npos) {
      out.emplace_back(line.substr(start));
      return out;
    }
    out.emplace_back(line.substr(start, bar - start));
    start = bar + 1;
  }
}

std::string_view event_kind_name(EventKind k) {
  for (const auto& kn : kKindNames) {
    if (kn.kind == k) return kn.name;
  }
  return "?";
}

/// Throws EpgsError on an unknown name (replay-spec hardening).
EventKind event_kind_from_name(std::string_view name) {
  for (const auto& kn : kKindNames) {
    if (kn.name == name) return kn.kind;
  }
  throw EpgsError("chaos spec: unknown event kind '" + std::string(name) +
                  "'");
}

}  // namespace

std::string describe(const ChaosEvent& e) {
  std::ostringstream os;
  os << "round " << e.round << ": " << event_kind_name(e.kind);
  if (!e.system.empty() || !e.phase.empty()) {
    os << ' ' << (e.system.empty() ? "*" : e.system) << '/'
       << (e.phase.empty() ? "*" : e.phase);
  }
  switch (e.kind) {
    case EventKind::kKillAtCheckpoint: os << " at iteration " << e.at; break;
    case EventKind::kKillAtPublish: os << " at publish " << e.at; break;
    case EventKind::kFsFault:
      os << ' ' << fsx::op_name(e.fs_op) << " errno=" << e.fs_errno
         << " at call " << e.at;
      if (!e.path_substr.empty()) os << " path~" << e.path_substr;
      break;
    default: break;
  }
  if (e.fires != 1) os << " x" << e.fires;
  os << (e.once ? " (once)" : " (persistent)");
  return os.str();
}

ChaosSchedule generate_schedule(std::uint64_t seed, int rounds,
                                const GeneratorConfig& cfg) {
  EPGS_CHECK(rounds > 0, "chaos: rounds must be positive");
  EPGS_CHECK(!cfg.systems.empty(), "chaos: no systems to target");
  EPGS_CHECK(!cfg.phases.empty(), "chaos: no algorithm phases to target");

  Xoshiro256 rng(seed);
  const auto pick = [&rng](const std::vector<std::string>& v) {
    return v[rng.uniform_u64(v.size())];
  };

  // The phase-kind pool. kWrongOutput joins only when a per-trial
  // validated phase exists to catch it.
  std::vector<EventKind> phase_kinds = {
      EventKind::kHang,     EventKind::kTransient, EventKind::kError,
      EventKind::kAbort,    EventKind::kSegv,      EventKind::kBadAlloc};
  if (!cfg.validated_phases.empty()) {
    phase_kinds.push_back(EventKind::kWrongOutput);
  }
  std::vector<Family> families = {Family::kPhase};
  if (cfg.checkpoint_kinds) {
    families.push_back(Family::kKillCkpt);
    families.push_back(Family::kKillPublish);
  }
  if (!cfg.fs_path_substr.empty()) families.push_back(Family::kFs);

  ChaosSchedule sched;
  sched.seed = seed;
  sched.rounds = rounds;
  for (int round = 0; round < rounds; ++round) {
    const int count = static_cast<int>(
        1 + rng.uniform_u64(std::min<std::uint64_t>(3, families.size())));
    // Draw `count` distinct families: partial Fisher-Yates over a copy
    // keeps the stream consumption deterministic.
    std::vector<Family> pool = families;
    for (int i = 0; i < count; ++i) {
      const auto j =
          i + rng.uniform_u64(pool.size() - static_cast<std::size_t>(i));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
      ChaosEvent e;
      e.round = round;
      e.once = true;
      switch (pool[static_cast<std::size_t>(i)]) {
        case Family::kPhase: {
          e.kind = phase_kinds[rng.uniform_u64(phase_kinds.size())];
          e.system = pick(cfg.systems);
          e.phase = e.kind == EventKind::kWrongOutput
                        ? pick(cfg.validated_phases)
                        : pick(cfg.phases);
          e.at = 1;  // see ChaosEvent::at: per-child counters under fork
          e.fires = 1;
          break;
        }
        case Family::kKillCkpt: {
          e.kind = EventKind::kKillAtCheckpoint;
          e.system = pick(cfg.systems);
          e.at = static_cast<int>(rng.uniform_in(1, 3));
          break;
        }
        case Family::kKillPublish: {
          e.kind = EventKind::kKillAtPublish;
          e.at = static_cast<int>(rng.uniform_in(1, 3));
          break;
        }
        case Family::kFs: {
          e.kind = EventKind::kFsFault;
          e.fs_op = fsx::Op::kWrite;
          e.fs_errno = rng.uniform() < 0.5 ? 28 /*ENOSPC*/ : 5 /*EIO*/;
          e.at = static_cast<int>(rng.uniform_in(1, 4));
          e.fires = static_cast<int>(rng.uniform_in(1, 2));
          e.path_substr = cfg.fs_path_substr;
          // The fs shim has no once-marker; recoverability comes from the
          // target's degradation path instead (see GeneratorConfig).
          e.once = false;
          break;
        }
      }
      sched.events.push_back(std::move(e));
    }
  }
  return sched;
}

std::string to_spec(const ChaosSchedule& s) {
  std::ostringstream os;
  os << "epgs-chaos-v1\n";
  os << "seed " << s.seed << "\n";
  os << "rounds " << s.rounds << "\n";
  for (const ChaosEvent& e : s.events) {
    os << "event " << e.round << '|' << event_kind_name(e.kind) << '|'
       << e.system << '|' << e.phase << '|' << e.at << '|' << e.fires << '|'
       << fsx::op_name(e.fs_op) << '|' << e.fs_errno << '|' << e.path_substr
       << '|' << (e.once ? 1 : 0) << "\n";
  }
  return os.str();
}

ChaosSchedule parse_spec(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  EPGS_CHECK(std::getline(is, line) && line == "epgs-chaos-v1",
             "chaos spec: missing epgs-chaos-v1 header");
  ChaosSchedule s;
  bool saw_seed = false;
  bool saw_rounds = false;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    if (line.rfind("seed ", 0) == 0) {
      s.seed = text::parse<std::uint64_t>(line.substr(5), kCtx, "seed", 0);
      saw_seed = true;
    } else if (line.rfind("rounds ", 0) == 0) {
      s.rounds = text::parse<int>(line.substr(7), kCtx, "rounds", 0);
      saw_rounds = true;
    } else if (line.rfind("event ", 0) == 0) {
      const auto f = split_fields(line.substr(6));
      EPGS_CHECK(f.size() == 10, "chaos spec: event line has " +
                                     std::to_string(f.size()) +
                                     " fields, expected 10");
      ChaosEvent e;
      e.round = text::parse<int>(f[0], kCtx, "round", 0);
      e.kind = event_kind_from_name(f[1]);
      e.system = f[2];
      e.phase = f[3];
      e.at = text::parse<int>(f[4], kCtx, "at", 0);
      e.fires = text::parse<int>(f[5], kCtx, "fires", 0);
      e.fs_op = fsx::op_from_name(f[6]);
      e.fs_errno = text::parse<int>(f[7], kCtx, "errno", 0);
      e.path_substr = f[8];
      const int once = text::parse<int>(f[9], kCtx, "once", 0);
      EPGS_CHECK(once == 0 || once == 1,
                 "chaos spec: once must be 0 or 1, got '" + f[9] + "'");
      e.once = once == 1;
      EPGS_CHECK(e.round >= 0, "chaos spec: negative round");
      EPGS_CHECK(e.at >= 1, "chaos spec: at must be >= 1");
      EPGS_CHECK(e.fires >= 1, "chaos spec: fires must be >= 1");
      s.events.push_back(std::move(e));
    } else {
      throw EpgsError("chaos spec: unrecognized line '" + line + "'");
    }
  }
  EPGS_CHECK(saw_seed && saw_rounds, "chaos spec: missing seed/rounds line");
  EPGS_CHECK(s.rounds > 0, "chaos spec: rounds must be positive");
  for (const ChaosEvent& e : s.events) {
    EPGS_CHECK(e.round < s.rounds,
               "chaos spec: event round " + std::to_string(e.round) +
                   " out of range (rounds=" + std::to_string(s.rounds) + ")");
  }
  return s;
}

}  // namespace epgs::harness::chaos
