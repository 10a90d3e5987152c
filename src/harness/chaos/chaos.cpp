#include "harness/chaos/chaos.hpp"

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>

#include "core/csv.hpp"
#include "core/error.hpp"
#include "harness/chaos/shrink.hpp"
#include "harness/records.hpp"
#include "harness/runner.hpp"
#include "harness/supervisor.hpp"
#include "systems/common/fault_injection.hpp"

namespace epgs::harness::chaos {
namespace {

/// The phase name run_timed() reports for each algorithm — what
/// fault::on_phase_start matches against.
std::string_view phase_of(Algorithm a) {
  switch (a) {
    case Algorithm::kBfs: return "bfs";
    case Algorithm::kSssp: return "sssp";
    case Algorithm::kPageRank: return "pagerank";
    case Algorithm::kCdlp: return "cdlp";
    case Algorithm::kLcc: return "lcc";
    case Algorithm::kWcc: return "wcc";
    case Algorithm::kTc: return "tc";
    case Algorithm::kBc: return "bc";
  }
  return "?";
}

// Faults may legitimately perturb timing and retry provenance; everything
// else must come back byte-identical. The column stripping is shared with
// the serve tests (records_to_stripped_csv).
std::string stripped_csv(const std::vector<RunRecord>& recs) {
  return records_to_stripped_csv(recs);
}

/// First differing line between the control and chaos CSVs, for the
/// violation report.
std::string first_divergence(const std::string& want,
                             const std::string& got) {
  std::istringstream ws(want);
  std::istringstream gs(got);
  std::string wl;
  std::string gl;
  int line = 1;
  while (true) {
    const bool have_w = static_cast<bool>(std::getline(ws, wl));
    const bool have_g = static_cast<bool>(std::getline(gs, gl));
    if (!have_w && !have_g) return "CSVs identical";
    if (!have_w || !have_g || wl != gl) {
      return "CSV diverges at line " + std::to_string(line) +
             ": control='" + (have_w ? wl : "<eof>") + "' chaos='" +
             (have_g ? gl : "<eof>") + "'";
    }
    ++line;
  }
}

struct RoundDirs {
  std::string journal;
  std::string ckpt;
  std::string crash;
  std::string markers;
};

RoundDirs dirs_for(const std::string& work, const std::string& tag) {
  const std::filesystem::path p(work);
  return {(p / ("journal-" + tag)).string(), (p / ("ckpt-" + tag)).string(),
          (p / ("crash-" + tag)).string(), (p / ("markers-" + tag)).string()};
}

/// The chaos posture: isolation so fatal faults are contained,
/// retry_all so every recoverable outcome restarts deterministically,
/// per-iteration snapshots so kill events resume instead of redoing
/// work (and generated fs faults have the snapshot writes under the
/// round's ckpt- directory as their target), forensics so crashes leave
/// post-mortems, and near-zero backoff so retries do not dominate the
/// wall clock.
ExperimentConfig chaos_config(const ExperimentConfig& base,
                              const ChaosOptions& opts,
                              const RoundDirs& d) {
  ExperimentConfig cfg = base;
  cfg.validate = true;
  SupervisorOptions& sup = cfg.supervisor;
  sup.isolate = true;
  sup.retry_all_failures = true;
  sup.max_retries = opts.max_retries;
  sup.timeout_seconds = opts.timeout_seconds;
  sup.backoff_base_seconds = 0.001;
  sup.backoff_max_seconds = 0.01;
  sup.journal_path = d.journal;
  sup.resume = false;
  sup.checkpoint_dir = d.ckpt;
  sup.checkpoint_every_iterations = 1;
  sup.checkpoint_every_seconds = 0.0;  // exact cadence only: determinism
  sup.crash_report_dir = d.crash;
  return cfg;
}

fault::Kind plan_kind(EventKind k) {
  switch (k) {
    case EventKind::kHang: return fault::Kind::kHang;
    case EventKind::kTransient: return fault::Kind::kTransient;
    case EventKind::kError: return fault::Kind::kError;
    case EventKind::kAbort: return fault::Kind::kAbort;
    case EventKind::kSegv: return fault::Kind::kSegv;
    case EventKind::kBadAlloc: return fault::Kind::kBadAlloc;
    case EventKind::kWrongOutput: return fault::Kind::kWrongOutput;
    default: return fault::Kind::kNone;
  }
}

void arm_event(const ChaosEvent& e, const std::string& marker) {
  switch (e.kind) {
    case EventKind::kKillAtCheckpoint: {
      fault::KillPlan k;
      k.system = e.system;
      k.at_iteration = static_cast<std::uint64_t>(e.at);
      if (e.once) k.once_marker = marker;
      fault::arm_kill_at_checkpoint(k);
      return;
    }
    case EventKind::kKillAtPublish: {
      fault::PublishKillPlan p;
      p.at_publish = e.at;
      if (e.once) p.once_marker = marker;
      fault::arm_kill_at_publish(p);
      return;
    }
    case EventKind::kFsFault: {
      fsx::Plan f;
      f.op = e.fs_op;
      f.error_code = e.fs_errno;
      f.at_call = e.at;
      f.max_fires = e.fires;
      f.path_substr = e.path_substr;
      fsx::arm(f);
      return;
    }
    default: {
      fault::Plan p;
      p.system = e.system;
      p.kind = plan_kind(e.kind);
      // ChaosEvent.at is 1-based ("the Nth matching phase start");
      // Plan.at_phase counts events to *skip* before firing.
      p.at_phase = e.at - 1;
      p.max_fires = e.fires;
      p.phase = e.phase;
      if (e.once) p.once_marker = marker;
      fault::arm(p);
      return;
    }
  }
}

void disarm_everything() {
  fault::disarm_all();
  fsx::disarm();
}

/// Run one chaos sweep with `events` armed and check both invariants
/// against the control CSV.
RoundReport run_round(const ExperimentConfig& base, const ChaosOptions& opts,
                      const std::vector<ChaosEvent>& events, int round,
                      const std::string& tag,
                      const std::string& control_csv) {
  RoundReport rep;
  rep.round = round;
  const RoundDirs d = dirs_for(opts.work_dir, tag);
  std::filesystem::create_directories(d.markers);
  const ExperimentConfig cfg = chaos_config(base, opts, d);

  disarm_everything();
  std::vector<std::string> markers;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::string marker =
        d.markers + "/ev" + std::to_string(i) + ".marker";
    arm_event(events[i], marker);
    markers.push_back(marker);
    rep.armed.push_back(describe(events[i]));
  }

  ExperimentResult res;
  try {
    res = run_experiment(cfg);
  } catch (const std::exception& ex) {
    disarm_everything();
    rep.detail = std::string("sweep aborted: ") + ex.what();
    return rep;
  }
  disarm_everything();

  // Classify: did each armed event fire? Once-events leave their claimed
  // marker behind (the claim happens in the fork child, but the file is
  // shared). An fs event targets snapshot writes, which only isolated
  // children make, and the shim counts its fires per process, so the
  // parent cannot tell whether it fired.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const ChaosEvent& e = events[i];
    std::string obs = describe(e);
    if (e.kind == EventKind::kFsFault) {
      obs += " -> armed in every isolated child (fires unseen by the "
             "parent)";
    } else if (e.once) {
      obs += std::filesystem::exists(markers[i]) ? " -> fired"
                                                 : " -> did not fire";
    } else {
      obs += " -> persistent (no marker)";
    }
    rep.observations.push_back(std::move(obs));
  }
  // ...and what the supervisor saw per affected unit. Every row of a
  // unit carries the unit's provenance, so each unit is reported once.
  std::set<std::string> reported;
  for (const RunRecord& r : res.records) {
    const std::string unit = r.system + "/" +
                             (r.algorithm.empty() ? r.phase : r.algorithm) +
                             (r.trial >= 0
                                  ? " trial " + std::to_string(r.trial)
                                  : std::string());
    if (!reported.insert(unit).second) continue;
    if (r.outcome != Outcome::kSuccess) {
      std::string obs = "DNF: " + unit + " " +
                        std::string(outcome_name(r.outcome));
      const auto err = r.extra.find("error");
      if (err != r.extra.end()) obs += " (" + err->second + ")";
      rep.observations.push_back(std::move(obs));
    } else if (const auto att = r.extra.find("attempts");
               att != r.extra.end()) {
      std::string obs = "recovered: " + unit + " after " + att->second +
                        " attempts";
      const auto lf = r.extra.find("last_failure");
      if (lf != r.extra.end()) obs += " (last failure " + lf->second + ")";
      const auto fp = r.extra.find("crash_fingerprint");
      if (fp != r.extra.end()) obs += " [stack " + fp->second + "]";
      rep.observations.push_back(std::move(obs));
    }
  }

  // Invariant 1: the stripped CSV is byte-identical to the control.
  const std::string mine = stripped_csv(res.records);
  rep.csv_match = mine == control_csv;
  if (!rep.csv_match && rep.detail.empty()) {
    rep.detail = first_divergence(control_csv, mine);
  }

  // Invariant 2: the round's journal replays cleanly and records every
  // unit as an eventual success.
  try {
    const auto entries =
        replay_journal(cfg.supervisor.journal_path, config_fingerprint(cfg));
    rep.journal_clean = !entries.empty();
    if (entries.empty() && rep.detail.empty()) {
      rep.detail = "journal replayed empty";
    }
    for (const JournalEntry& en : entries) {
      if (en.report.outcome != Outcome::kSuccess) {
        rep.journal_clean = false;
        if (rep.detail.empty()) {
          rep.detail = "journal records non-success unit " + en.key + " (" +
                       std::string(outcome_name(en.report.outcome)) + ")";
        }
        break;
      }
    }
  } catch (const std::exception& ex) {
    rep.journal_clean = false;
    if (rep.detail.empty()) {
      rep.detail = std::string("journal replay failed: ") + ex.what();
    }
  }
  return rep;
}

std::vector<ChaosEvent> events_of_round(const ChaosSchedule& s, int round) {
  std::vector<ChaosEvent> out;
  for (const ChaosEvent& e : s.events) {
    if (e.round == round) out.push_back(e);
  }
  return out;
}

}  // namespace

ChaosReport run_chaos(const ExperimentConfig& base,
                      const ChaosOptions& opts) {
  EPGS_CHECK(!base.systems.empty(), "chaos: no systems configured");
  EPGS_CHECK(!base.algorithms.empty(), "chaos: no algorithms configured");
  std::filesystem::create_directories(opts.work_dir);

  GeneratorConfig gc;
  gc.systems = base.systems;
  for (const Algorithm a : base.algorithms) {
    gc.phases.emplace_back(phase_of(a));
    // bfs/sssp results are checked on every trial once validation is on
    // (which chaos_config forces), so a wrong-output fault there is
    // guaranteed to be caught and retried.
    if (a == Algorithm::kBfs || a == Algorithm::kSssp) {
      gc.validated_phases.emplace_back(phase_of(a));
    }
  }
  gc.checkpoint_kinds = true;
  gc.fs_path_substr = "ckpt-";

  ChaosReport out;
  out.schedule = opts.replay_spec.empty()
                     ? generate_schedule(opts.seed, opts.rounds, gc)
                     : parse_spec(opts.replay_spec);
  if (opts.force_violation) {
    // A corruption the retry budget cannot clear: fires on every attempt
    // of every matching trial, so the unit ends as kValidationFailed and
    // the CSV must diverge from the control.
    EPGS_CHECK(!gc.validated_phases.empty(),
               "chaos: --force-violation needs bfs or sssp configured");
    ChaosEvent e;
    e.round = 0;
    e.kind = EventKind::kWrongOutput;
    e.system = base.systems.front();
    e.phase = gc.validated_phases.front();
    e.at = 1;
    e.fires = opts.max_retries + 2;
    e.once = false;
    out.schedule.events.push_back(std::move(e));
  }

  // Control: the fault-free ground truth, same posture, own directories.
  disarm_everything();
  const ExperimentResult control =
      run_experiment(chaos_config(base, opts, dirs_for(opts.work_dir,
                                                       "control")));
  for (const RunRecord& r : control.records) {
    EPGS_CHECK(r.outcome == Outcome::kSuccess,
               "chaos: control run failed without faults (" + r.system +
                   "/" + r.algorithm + ": " +
                   std::string(outcome_name(r.outcome)) +
                   ") — fix the config before injecting faults");
  }
  const std::string control_csv = stripped_csv(control.records);

  for (int round = 0; round < out.schedule.rounds; ++round) {
    RoundReport rep =
        run_round(base, opts, events_of_round(out.schedule, round), round,
                  "r" + std::to_string(round), control_csv);
    out.violated |= !rep.ok();
    out.rounds.push_back(std::move(rep));
  }

  if (out.violated && opts.shrink) {
    int probe_no = 0;
    const ViolationProbe probe =
        [&](const std::vector<ChaosEvent>& subset) {
          if (subset.empty()) return false;
          const int tag_no = probe_no++;
          std::vector<int> rounds_present;
          for (const ChaosEvent& e : subset) {
            bool seen = false;
            for (const int r : rounds_present) seen |= (r == e.round);
            if (!seen) rounds_present.push_back(e.round);
          }
          for (const int r : rounds_present) {
            std::vector<ChaosEvent> evs;
            for (const ChaosEvent& e : subset) {
              if (e.round == r) evs.push_back(e);
            }
            const RoundReport rep = run_round(
                base, opts, evs, r,
                "probe" + std::to_string(tag_no) + "-r" + std::to_string(r),
                control_csv);
            if (!rep.ok()) return true;
          }
          return false;
        };
    ShrinkResult sr = shrink_events(out.schedule.events, probe);
    out.minimal = std::move(sr.minimal);
    out.shrink_probes = sr.probes;
  }

  if (out.violated) {
    // Replayable reproducer: the minimal subset when shrinking ran, the
    // full schedule otherwise.
    ChaosSchedule repro;
    repro.seed = out.schedule.seed;
    repro.rounds = out.schedule.rounds;
    repro.events = out.minimal.empty() ? out.schedule.events : out.minimal;
    const std::string path =
        (std::filesystem::path(opts.work_dir) / "chaos-minimal.spec")
            .string();
    std::ofstream spec(path, std::ios::trunc);
    spec << to_spec(repro);
    spec.close();
    if (spec) out.minimal_spec_path = path;
  }
  return out;
}

std::string render_chaos_report(const ChaosReport& rep) {
  std::ostringstream os;
  os << "chaos: seed " << rep.schedule.seed << ", " << rep.schedule.rounds
     << " round(s), " << rep.schedule.events.size() << " event(s)\n";
  for (const RoundReport& r : rep.rounds) {
    os << "round " << r.round << ": "
       << (r.ok() ? "OK" : "VIOLATION")
       << " (csv " << (r.csv_match ? "match" : "MISMATCH") << ", journal "
       << (r.journal_clean ? "clean" : "DIRTY") << ")\n";
    for (const std::string& a : r.armed) os << "  armed: " << a << "\n";
    for (const std::string& o : r.observations) os << "  " << o << "\n";
    if (!r.detail.empty()) os << "  detail: " << r.detail << "\n";
  }
  if (rep.violated) {
    os << "invariant VIOLATED";
    if (!rep.minimal.empty()) {
      os << "; shrunk to " << rep.minimal.size() << " event(s) in "
         << rep.shrink_probes << " probe(s):\n";
      for (const ChaosEvent& e : rep.minimal) {
        os << "  " << describe(e) << "\n";
      }
    } else {
      os << "\n";
    }
    if (!rep.minimal_spec_path.empty()) {
      os << "replay spec: " << rep.minimal_spec_path << "\n";
    }
  } else {
    os << "invariant held: every fault recovered; stripped CSV "
          "byte-identical to the fault-free control\n";
  }
  return os.str();
}

}  // namespace epgs::harness::chaos
