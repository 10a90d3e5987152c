#include "harness/runner.hpp"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>
#include <system_error>
#include <utility>

#include "core/error.hpp"
#include "core/parallel.hpp"
#include "graph/csr.hpp"
#include "harness/collector.hpp"
#include "harness/dataset_pipeline.hpp"
#include "harness/supervisor.hpp"
#include "harness/sweep_plan.hpp"
#include "systems/common/reference.hpp"
#include "systems/common/registry.hpp"
#include "systems/common/validation.hpp"

namespace epgs::harness {
namespace {

/// RAII detach of the supervisor token (and checkpoint session) from a
/// system: both die with the attempt/trial, so the system must never keep
/// a pointer past it.
struct TokenGuard {
  System* sys;
  ~TokenGuard() {
    sys->set_cancellation(nullptr);
    sys->set_checkpoint_session(nullptr);
  }
};

/// What --validate checks results against, built once per sweep: every
/// system runs from the same roots, so each root's reference answer is
/// computed once and every system's result is checked against it. Built
/// eagerly in the parent so fork-isolated children inherit it; the
/// answers take roots x n x 4 bytes per validated algorithm.
struct SweepOracle {
  std::optional<CSRGraph> csr;  ///< BFS and SSSP validate against it
  std::vector<std::vector<vid_t>> bfs_levels;  ///< indexed by trial
  std::vector<std::vector<weight_t>> sssp_dist;  ///< indexed by trial

  /// Only what a configured, validated algorithm reads: PageRank and
  /// WCC validation need nothing here (WCC checks the edge list).
  SweepOracle(const ExperimentConfig& cfg, const EdgeList& el,
              const std::vector<vid_t>& roots) {
    const auto validated = [&](Algorithm a) {
      return cfg.validate &&
             std::ranges::find(cfg.algorithms, a) != cfg.algorithms.end();
    };
    const bool bfs = validated(Algorithm::kBfs);
    const bool sssp = validated(Algorithm::kSssp);
    if (!bfs && !sssp) return;
    csr = CSRGraph::from_edges(el);
    for (const vid_t root : roots) {
      if (bfs) bfs_levels.push_back(ref::bfs_levels(*csr, root));
      if (sssp) sssp_dist.push_back(ref::dijkstra(*csr, root));
    }
  }
};

/// The report of a unit a reused system skipped: the phase it logged
/// when it was paid for, already at seconds 0.
TrialReport skipped_unit(const PhaseEntry& entry) {
  TrialReport rep;
  rep.log.add(entry);
  return rep;
}

/// `entry` as a reused system re-emits it.
PhaseEntry unpaid(PhaseEntry entry) {
  entry.seconds = 0.0;
  return entry;
}

/// Execute one system's slice of the plan. Everything decided up front
/// lives in `sp`; this function only drives the adapter through the
/// supervisor and hands each unit's report to the collector. With a
/// `pool`, the system comes from it when one was kept and goes back to
/// it when every unit succeeded.
void execute_system_plan(const ExperimentConfig& cfg,
                         const std::string& fingerprint,
                         const SweepPlan& plan, const SystemPlan& sp,
                         const EdgeList& el, SystemPool* pool,
                         const std::vector<vid_t>& roots,
                         const SweepOracle& oracle,
                         RecordCollector& collector,
                         Xoshiro256& backoff_rng, ExperimentResult& result) {
  const SupervisorOptions& sup = cfg.supervisor;
  const bool file_mode = plan.data_path == DataPath::kNativeFile;

  // Finished units go to the collector, which journals them and builds
  // their rows and raw log as it does a replayed unit's. Failed
  // configuration, load and build units are only added, not journaled:
  // a resume should retry them.
  if (!sp.config_error.empty()) {
    TrialReport rep;
    rep.outcome = Outcome::kConfig;
    rep.message = sp.config_error;
    collector.add(plan, sp.config_key, rep);
    return;
  }
  // A system whose trials were all replayed is neither staged nor built.
  if (!sp.trials.empty() &&
      std::ranges::all_of(sp.trials, &PlannedTrial::replayed)) {
    return;
  }
  // A kept system was staged and built from this dataset by an earlier
  // run: staging and building are skipped, and the rows they would have
  // written are emitted from its saved phases instead.
  std::optional<BuiltSystem> reused;
  if (pool != nullptr) reused = pool->take(sp.system, plan.threads);
  std::unique_ptr<System> sys =
      reused ? std::move(reused->system) : make_system(sp.system);
  ThreadScope scope(plan.threads);
  // What the pool keeps with this system, and whether it may keep it.
  std::optional<PhaseEntry> file_read_entry;
  std::optional<PhaseEntry> build_entry;
  bool all_succeeded = true;
  if (reused) {
    ++result.systems_reused;
    file_read_entry = std::move(reused->file_read);
    build_entry = std::move(reused->build);
  }

  // Stage the data. On the native-file path, separate-construction
  // systems get a supervised in-parent "file read" unit so the phase
  // times real zero-copy I/O; fused systems (GraphBIG, PowerGraph) only
  // record the path here — build() reads it, timed as one fused phase.
  // On the in-RAM path the system borrows the caller's edges, untimed,
  // for every build below: run_experiment's caller keeps them alive,
  // and forked children inherit them.
  if (reused) {
    if (file_read_entry && !sp.load_replayed) {
      collector.store(plan, sp.load_key, skipped_unit(*file_read_entry));
    }
  } else if (!file_mode) {
    sys->borrow_edges(el);
  } else if (sp.separate_construction) {
    SupervisorOptions load_opts = sup;
    load_opts.isolate = false;  // the staged edges must live in-parent
    const TrialReport rep = supervise_unit(
        [&](CancellationToken& token) {
          sys->set_cancellation(&token);
          TokenGuard guard{sys.get()};
          sys->log().clear();
          sys->load_file(sp.native_file);
          return sys->log();
        },
        load_opts, backoff_rng);
    if (rep.outcome != Outcome::kSuccess) {
      collector.add(plan, sp.load_key, rep);
      return;
    }
    // On resume the journal already holds this load's records; the
    // reload only restores the staged edges and is not re-journaled.
    if (!sp.load_replayed) collector.store(plan, sp.load_key, rep);
    if (const auto e = rep.log.find(phase::kFileRead)) {
      file_read_entry = unpaid(*e);
    }
  } else {
    sys->load_file(sp.native_file);
  }

  // Build-once systems (Graph500 "only constructs its graph once",
  // fused-build systems when per-trial reconstruction is off) build in
  // the parent — isolated children must inherit the built structure —
  // lazily, so a fully journaled system is never rebuilt on resume.
  bool once_built = false;
  bool build_failed = false;
  bool rebuilt = false;  // a per-trial build has run
  auto ensure_built = [&]() {
    if (once_built || build_failed) return once_built;
    if (reused) {
      once_built = true;
      if (!sp.build_replayed) {
        collector.store(plan, sp.build_key, skipped_unit(*build_entry));
      }
      return true;
    }
    ++result.systems_built;
    SupervisorOptions build_opts = sup;
    build_opts.isolate = false;  // the structure must live in-parent
    const TrialReport rep = supervise_unit(
        [&](CancellationToken& token) {
          sys->set_cancellation(&token);
          TokenGuard guard{sys.get()};
          sys->log().clear();
          sys->build();
          return sys->log();
        },
        build_opts, backoff_rng);
    if (rep.outcome == Outcome::kSuccess) {
      once_built = true;
      if (const auto e = rep.log.find(phase::kBuild)) build_entry = unpaid(*e);
      // On resume the journal already holds (and replay already emitted)
      // this build's records; the rebuild only restores the in-memory
      // structure and is not re-journaled.
      if (!sp.build_replayed) collector.store(plan, sp.build_key, rep);
    } else {
      build_failed = true;
      collector.add(plan, sp.build_key, rep);
    }
    return once_built;
  };

  for (const PlannedTrial& t : sp.trials) {
    if (build_failed) break;
    if (interrupt_requested()) break;  // graceful SIGINT/SIGTERM
    if (t.replayed) continue;  // replayed, not re-run
    if (!sp.rebuild_per_trial && !ensure_built()) break;
    const bool rebuild = sp.rebuild_per_trial && !reused;
    if (rebuild && !rebuilt) {
      rebuilt = true;
      ++result.systems_built;
    }

    // One checkpoint session per trial: kernels attach their iteration
    // state to it, failed attempts leave a snapshot behind, and the next
    // attempt (or a --resume) continues from it.
    std::optional<CheckpointSession> session;
    if (!sup.checkpoint_dir.empty()) {
      CheckpointConfig cc;
      cc.dir = sup.checkpoint_dir;
      cc.unit_key = t.key;
      cc.fingerprint = fingerprint;
      cc.every_iterations = sup.checkpoint_every_iterations;
      cc.every_seconds = sup.checkpoint_every_seconds;
      session.emplace(cc);
    }

    const auto trial = static_cast<std::size_t>(t.trial);
    const vid_t root = roots[trial];
    const UnitFn unit = [&](CancellationToken& token) {
      sys->set_cancellation(&token);
      sys->set_checkpoint_session(session ? &*session : nullptr);
      TokenGuard guard{sys.get()};
      sys->log().clear();
      if (rebuild) {
        sys->build();
      } else if (sp.rebuild_per_trial) {
        sys->log().add(*build_entry);  // the kept build, unpaid
      }
      auto check = [&](const ValidationError& err, std::string_view what) {
        if (err) {
          throw ValidationFailedError(sp.system + " " + std::string(what) +
                                      " invalid: " + *err);
        }
      };
      switch (t.alg) {
        case Algorithm::kBfs: {
          auto res = sys->bfs(root);
          if (cfg.validate) {
            check(validate_bfs(*oracle.csr, res, oracle.bfs_levels[trial]),
                  "BFS");
          }
          break;
        }
        case Algorithm::kSssp: {
          auto res = sys->sssp(root);
          if (cfg.validate) {
            check(validate_sssp(*oracle.csr, res, oracle.sssp_dist[trial]),
                  "SSSP");
          }
          break;
        }
        case Algorithm::kPageRank: {
          auto res = sys->pagerank(cfg.pagerank);
          if (cfg.validate && t.trial == 0) {
            check(validate_pagerank(res), "PageRank");
          }
          break;
        }
        case Algorithm::kCdlp:
          (void)sys->cdlp(cfg.cdlp_iterations);
          break;
        case Algorithm::kLcc:
          (void)sys->lcc();
          break;
        case Algorithm::kWcc: {
          auto res = sys->wcc();
          if (cfg.validate && t.trial == 0) {
            check(validate_wcc(el, res), "WCC");
          }
          break;
        }
        case Algorithm::kTc:
          (void)sys->tc();
          break;
        case Algorithm::kBc:
          (void)sys->bc(root);
          break;
      }
      return sys->log();

      // LCC/WCC/CDLP/PageRank are deterministic per trial; still run
      // them num_roots times as the paper does ("for PageRank, we
      // simply run the algorithm 32 times").
    };

    // Forensics: derive this unit's crash-report path from the sweep's
    // --crash-dir (same sanitize+FNV naming as checkpoints, different
    // extension). A signal-killed isolated attempt writes its post-mortem
    // there; the parent parses it back into the report.
    SupervisorOptions unit_opts = sup;
    if (!sup.crash_report_dir.empty() && sup.isolate) {
      unit_opts.crash_report_path =
          CheckpointSession::path_for(sup.crash_report_dir, t.key)
              .replace_extension(".crash")
              .string();
    }

    TrialReport rep = supervise_unit(unit, unit_opts, backoff_rng,
                                     session ? &*session : nullptr);
    // A failure that left a snapshot behind is resumable: its report
    // names the snapshot's iteration, and --resume re-runs the unit from
    // there instead of trusting the journaled failure. Peek the file — a
    // SIGKILLed fork child wrote it, so this process's in-memory counter
    // never saw the save.
    if (rep.outcome != Outcome::kSuccess && session &&
        session->snapshot_exists()) {
      const std::int64_t iter =
          CheckpointSession::peek_iteration(session->snapshot_path());
      rep.snapshot_iter =
          iter >= 0 ? iter
                    : static_cast<std::int64_t>(
                          session->last_saved_iteration());
    }
    collector.store(plan, t.key, rep);
    if (rep.outcome != Outcome::kSuccess) all_succeeded = false;
    if (rebuild && rep.outcome == Outcome::kSuccess) {
      if (const auto e = rep.log.find(phase::kBuild)) {
        build_entry = unpaid(*e);
      }
    }
    if (rep.outcome == Outcome::kInterrupted) break;
  }

  // Keep the system only when it is whole: every unit succeeded and this
  // process holds it built (an isolated child's build died with the
  // child). A failed or cancelled unit may have left it half-updated.
  if (pool == nullptr || !all_succeeded || !sys->is_built() || !build_entry) {
    return;
  }
  sys->release_edges();  // a kept system is never rebuilt
  pool->put(BuiltSystem{.name = sp.system,
                        .threads = plan.threads,
                        .system = std::move(sys),
                        .file_read = std::move(file_read_entry),
                        .build = std::move(*build_entry)});
}

}  // namespace

std::optional<BuiltSystem> SystemPool::take(std::string_view name,
                                            int threads) {
  std::lock_guard<std::mutex> lk(mutex_);
  const auto it = std::ranges::find_if(systems_, [&](const BuiltSystem& b) {
    return b.name == name && b.threads == threads;
  });
  if (it == systems_.end()) return std::nullopt;
  BuiltSystem built = std::move(*it);
  systems_.erase(it);
  return built;
}

void SystemPool::put(BuiltSystem built) {
  std::lock_guard<std::mutex> lk(mutex_);
  systems_.push_back(std::move(built));
}

void SystemPool::clear() {
  std::lock_guard<std::mutex> lk(mutex_);
  systems_.clear();
}

std::size_t SystemPool::size() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return systems_.size();
}

std::uint64_t SystemPool::bytes() const {
  std::lock_guard<std::mutex> lk(mutex_);
  std::uint64_t sum = 0;
  for (const BuiltSystem& b : systems_) sum += b.build.work.bytes_touched;
  return sum;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  // Materialize: through the content-addressed cache (and on to the
  // native-file data path) when the pipeline is enabled, else the legacy
  // in-RAM path.
  EdgeList el;
  std::optional<HomogenizedDataset> files;
  StagedDataset staged;
  std::optional<std::string> degradation;
  if (cfg.dataset.enabled()) {
    PreparedDataset prep = prepare_dataset(cfg.graph, cfg.dataset);
    el = std::move(prep.edges);
    if (prep.degraded) {
      // Sick cache (disk full, lock timeout, I/O error): the sweep runs
      // anyway on the in-RAM data path and the result carries a warning.
      degradation = "dataset cache degraded to uncached in-RAM generation: " +
                    prep.degradation;
    } else {
      files = std::move(prep.entry.files);
      staged.files = &*files;
      staged.cache_hit = prep.cache_hit;
    }
  } else {
    el = materialize(cfg.graph);
  }
  staged.edges = &el;

  ExperimentResult result = run_experiment(cfg, staged);
  // Cache fallback happened first, so its warning leads the list.
  result.dataset_degraded = degradation.has_value();
  if (degradation) {
    result.warnings.insert(result.warnings.begin(), std::move(*degradation));
  }
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const StagedDataset& staged) {
  EPGS_CHECK(!cfg.systems.empty(), "no systems configured");
  EPGS_CHECK(!cfg.algorithms.empty(), "no algorithms configured");
  EPGS_CHECK(staged.edges != nullptr, "no staged edges");
  const SupervisorOptions& sup = cfg.supervisor;
  const EdgeList& el = *staged.edges;

  ExperimentResult result;
  result.used_dataset_pipeline = staged.files != nullptr;
  result.dataset_cache_hit = staged.cache_hit;

  result.roots = select_roots(el, cfg.num_roots, cfg.root_seed);

  const SweepOracle oracle(cfg, el, result.roots);

  // Crash-forensics reports land here; a failure to create the directory
  // silently disables arming (crash::arm tolerates an unopenable path —
  // forensics must never fail a sweep).
  if (!sup.crash_report_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(sup.crash_report_dir, ec);
  }

  // Collect: journal replay (on --resume) happens before planning so the
  // plan can mark every already-finished unit.
  const std::string fingerprint = config_fingerprint(cfg);
  RecordCollector collector(sup, fingerprint);

  // Plan: every unit and every data-path/rebuild/replay decision, up
  // front. The replayed units' rows lead, in plan order.
  const SweepPlan plan = plan_sweep(cfg, staged.files, collector.journaled());
  collector.emit_replayed(plan);

  // Execute.
  Xoshiro256 backoff_rng(1);  // fixed seed: deterministic jitter
  for (const SystemPlan& sp : plan.systems) {
    if (interrupt_requested()) break;  // flush what finished, stop cleanly
    execute_system_plan(cfg, fingerprint, plan, sp, el, staged.pool,
                        result.roots, oracle, collector, backoff_rng, result);
  }

  collector.take(result);
  if (!collector.journal_warning().empty()) {
    result.warnings.push_back(
        "journaling stopped mid-sweep (resume will re-run the unjournaled "
        "tail): " +
        collector.journal_warning());
  }
  return result;
}

}  // namespace epgs::harness
